"""Phase timers: the program's one timing facility.

:mod:`repro.perf.timer` holds a :class:`PerfRecorder` that collects named
phase durations (``harvest``, ``selection``, ``sweep-cell``,
``split-prepare``) behind a module switch.  Instrumented sites make one
call, ``with perf.phase(name):`` or ``perf.record(name, seconds)``; both
are shared no-ops unless profiling was explicitly enabled (:func:`enable`
or the ``REPRO_PERF`` environment variable).  :func:`handoff` and
:func:`fold` carry worker phases home across a process boundary.

Performance *tracking* is perfbench's job (``perfbench/``): its end-to-end
metrics, compared commit against commit on one machine by
``benchmarks/check_perf_ab.py``.
"""

from repro.perf.timer import (
    PerfRecorder,
    PhaseSample,
    Timer,
    disable,
    enable,
    fold,
    handoff,
    phase,
    record,
    recorder,
)

__all__ = [
    "PerfRecorder",
    "PhaseSample",
    "Timer",
    "disable",
    "enable",
    "fold",
    "handoff",
    "phase",
    "record",
    "recorder",
]
