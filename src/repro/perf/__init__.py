"""Unified performance subsystem: phase timers, manifest, reports.

Three layers, each usable on its own:

* :mod:`repro.perf.timer` — the program's one timing facility: a
  :class:`PerfRecorder` that collects named phase durations (``harvest``,
  ``selection``, ``sweep-cell``, ``split-prepare``) behind a module
  switch.  Instrumented sites make one call, ``with perf.phase(name):``
  or ``perf.record(name, seconds)``; both are shared no-ops unless
  profiling was explicitly enabled (:func:`enable` or the ``REPRO_PERF``
  environment variable).  :func:`handoff` and :func:`fold` carry worker
  phases home across a process boundary.
* :mod:`repro.perf.manifest` — one schema over every
  ``benchmarks/results/BENCH_*.json`` artifact: versions, scale, backend,
  wall-clock, pages/sec, speedup-vs-serial.  Deterministic given the
  artifact files, so CI regenerates the committed ``BENCH_manifest.json``
  byte-identically.
* :mod:`repro.perf.report` — human-readable renderings: per-backend
  speedup tables and deltas vs the committed manifest (the
  ``repro.cli perf report`` command).
"""

from repro.perf.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    build_manifest,
    load_manifest,
    manifest_entries,
    render_manifest_json,
    throughput_entries,
    write_manifest,
)
from repro.perf.report import format_manifest, format_manifest_delta
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
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "PerfRecorder",
    "PhaseSample",
    "Timer",
    "build_manifest",
    "disable",
    "enable",
    "fold",
    "format_manifest",
    "format_manifest_delta",
    "handoff",
    "load_manifest",
    "manifest_entries",
    "phase",
    "record",
    "recorder",
    "render_manifest_json",
    "throughput_entries",
    "write_manifest",
]
