"""Phase timers behind one module-level switch.

The harvesting hot paths (selection loops, split preparation, sweep cells)
are exactly the code whose cost we want to measure, so the instrumentation
must cost nothing when profiling is off.  Every instrumented site makes one
call::

    from repro import perf

    with perf.phase("split-prepare", split=index):
        ...                         # timed when profiling is on

    # or, for code that already measured a duration itself:
    perf.record("selection", elapsed, selector=name)

With profiling off (the default), :func:`phase` returns one shared no-op
context manager and :func:`record` returns at once: no clock call, no
sample.  Profiling is enabled explicitly with :func:`enable` (optionally
passing a recorder to collect into) or ambiently with the ``REPRO_PERF``
environment variable, which the CLI and benchmark entry points honour.

Samples are wall-clock (``time.perf_counter``) phase durations with
optional metadata, aggregated per phase name.  A recorder is process-local,
but worker processes are not a blind spot: a worker entry point wraps its
work in :func:`handoff`, which yields the per-phase ``{count,
total_seconds}`` aggregates of exactly the samples recorded inside it, and
ships them home with its batch outcome or sweep cell result.  The
orchestrator passes what crossed the process boundary to :func:`fold`,
which records them as aggregate samples (:meth:`PerfRecorder.record_aggregate`)
tagged with their origin.  Samples stay in the recorder they were written
to: in-process work already recorded into the orchestrator's recorder and
is never folded.  Worker seconds remain worker CPU time — they are *summed
alongside*, never conflated with, orchestrator wall-clock dispatch phases.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union


@dataclass(frozen=True)
class PhaseSample:
    """One timed phase: name, elapsed seconds, optional metadata.

    ``count`` is how many phase occurrences this sample stands for:
    1 for a directly timed phase, more for an aggregate folded in from a
    worker process — ``seconds`` is then the summed duration of all of
    them.  Aggregation (:meth:`PerfRecorder.count` / ``mean``) weights by
    ``count`` so folded-in samples contribute exactly like their original
    per-occurrence samples would have.
    """

    name: str
    seconds: float
    meta: tuple = ()
    count: int = 1

    def meta_dict(self) -> Dict[str, object]:
        """Metadata as a plain dict (stored as items for hashability)."""
        return dict(self.meta)


class Timer:
    """Context manager timing one phase into a recorder.

    Returned by :meth:`PerfRecorder.phase` (and by :func:`phase` while
    profiling is on).
    """

    __slots__ = ("_recorder", "name", "meta", "elapsed", "_start")

    def __init__(self, recorder: "PerfRecorder", name: str,
                 **meta: object) -> None:
        self._recorder = recorder
        self.name = name
        self.meta = meta
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._recorder.record(self.name, self.elapsed, **self.meta)


class PerfRecorder:
    """Collects named phase durations and aggregates them per phase.

    Instances are cheap and independent; the module-level switch
    (:func:`enable`) only decides whether :func:`phase` and :func:`record`
    *reach* a shared one.
    """

    def __init__(self) -> None:
        self.samples: List[PhaseSample] = []

    # -- Recording ----------------------------------------------------------
    def phase(self, name: str, **meta: object) -> Timer:
        """A context manager timing one phase into this recorder."""
        return Timer(self, name, **meta)

    def record(self, name: str, seconds: float, **meta: object) -> None:
        """Record one already-measured phase duration."""
        self.samples.append(PhaseSample(name=name, seconds=float(seconds),
                                        meta=tuple(sorted(meta.items()))))

    def record_aggregate(self, name: str, total_seconds: float, count: int,
                         **meta: object) -> None:
        """Record ``count`` phase occurrences totalling ``total_seconds``.

        This is how worker-side timings cross a process boundary: the
        worker's per-phase aggregate becomes one weighted sample here, and
        :meth:`count` / :meth:`mean` treat it as ``count`` occurrences.
        """
        if count <= 0:
            return
        self.samples.append(PhaseSample(name=name, seconds=float(total_seconds),
                                        meta=tuple(sorted(meta.items())),
                                        count=int(count)))

    def record_aggregates(self, aggregates: Dict[str, Dict[str, float]],
                          **meta: object) -> None:
        """Fold an :meth:`aggregates_since`-shaped mapping in, one sample
        per phase name (e.g. the ``perf_phases`` a batch outcome shipped
        home)."""
        for name in sorted(aggregates):
            entry = aggregates[name]
            self.record_aggregate(name, float(entry["total_seconds"]),
                                  int(entry["count"]), **meta)

    # -- Aggregation --------------------------------------------------------
    def mark(self) -> int:
        """A position marker for :meth:`aggregates_since` (samples so far)."""
        return len(self.samples)

    def aggregates_since(self, mark: int = 0) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{count, total_seconds}`` over samples from ``mark`` on.

        The plain-data shape that travels across process boundaries; feed
        it to :meth:`record_aggregates` on the receiving recorder.
        """
        aggregates: Dict[str, Dict[str, float]] = {}
        for sample in self.samples[mark:]:
            entry = aggregates.setdefault(
                sample.name, {"count": 0, "total_seconds": 0.0})
            entry["count"] += sample.count
            entry["total_seconds"] += sample.seconds
        return aggregates

    def count(self, name: str) -> int:
        """Number of phase occurrences recorded for ``name``."""
        return sum(s.count for s in self.samples if s.name == name)

    def total(self, name: str) -> float:
        """Summed seconds of all samples for ``name``."""
        return sum(s.seconds for s in self.samples if s.name == name)

    def mean(self, name: str) -> float:
        """Mean seconds per phase occurrence for ``name`` (0.0 if none)."""
        seconds = 0.0
        occurrences = 0
        for sample in self.samples:
            if sample.name == name:
                seconds += sample.seconds
                occurrences += sample.count
        return seconds / occurrences if occurrences else 0.0

    def phases(self) -> List[str]:
        """Recorded phase names, sorted."""
        return sorted({s.name for s in self.samples})

    def samples_for(self, name: str) -> List[PhaseSample]:
        """All samples of one phase, in recording order."""
        return [s for s in self.samples if s.name == name]

    def as_dict(self) -> Dict[str, object]:
        """A plain-JSON aggregate: per-phase count / total / mean seconds."""
        return {
            "phases": {
                name: {
                    "count": self.count(name),
                    "total_seconds": self.total(name),
                    "mean_seconds": self.mean(name),
                }
                for name in self.phases()
            },
        }

    def write(self, path) -> Path:
        """Write the aggregate report as JSON and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        return path

    def clear(self) -> None:
        """Drop all recorded samples."""
        self.samples.clear()


#: The module-global recorder; ``None`` means profiling is off and every
#: instrumented site skips its bookkeeping entirely.
_RECORDER: Optional[PerfRecorder] = None

#: Environment variable that enables ambient profiling ("", "0" = off).
PERF_ENV_VAR = "REPRO_PERF"

if os.environ.get(PERF_ENV_VAR, "") not in ("", "0"):
    _RECORDER = PerfRecorder()

#: What :func:`phase` returns while profiling is off: one shared, reusable
#: no-op context manager, so a disabled site allocates no timer.
_NO_PHASE = nullcontext()


def phase(name: str, **meta: object) -> Union[Timer, nullcontext]:
    """A context manager timing one ``name`` phase into the global recorder.

    With profiling off it is the shared no-op :data:`_NO_PHASE`.
    """
    active = _RECORDER
    if active is None:
        return _NO_PHASE
    return active.phase(name, **meta)


def record(name: str, seconds: float, **meta: object) -> None:
    """Record one already-measured duration (a no-op with profiling off)."""
    active = _RECORDER
    if active is not None:
        active.record(name, seconds, **meta)


@contextmanager
def handoff() -> Iterator[Dict[str, Dict[str, float]]]:
    """The worker half of shipping phases across a process boundary.

    Yields a dict that, on exit, holds the per-phase ``{count,
    total_seconds}`` aggregates of exactly the samples recorded inside the
    block — ``{}`` with profiling off.  The samples themselves stay in the
    recorder: on the serial backend they already *are* the orchestrator's,
    and cells a caller runs on threads of its own, sharing one recorder,
    would lose or double-count samples if the hand-off cut them out.
    """
    phases: Dict[str, Dict[str, float]] = {}
    active = _RECORDER
    if active is None:
        yield phases
        return
    mark = active.mark()
    try:
        yield phases
    finally:
        phases.update(active.aggregates_since(mark))


def fold(phases: Dict[str, Dict[str, float]], **meta: object) -> None:
    """The orchestrator half: record :func:`handoff` aggregates, tagged
    with ``meta``, into the global recorder (a no-op with profiling off).

    Call it only for work that ran in another process; in-process work
    already recorded into this recorder.
    """
    active = _RECORDER
    if active is not None:
        active.record_aggregates(phases, **meta)


def recorder() -> Optional[PerfRecorder]:
    """The active global recorder, or ``None`` when profiling is disabled.

    For code that needs the recorder object itself (writing or summarising
    a report); instrumented sites call :func:`phase` or :func:`record`.
    """
    return _RECORDER


def enable(target: Optional[PerfRecorder] = None) -> PerfRecorder:
    """Enable global profiling, collecting into ``target`` (or a fresh one)."""
    global _RECORDER
    _RECORDER = target if target is not None else PerfRecorder()
    return _RECORDER


def disable() -> None:
    """Disable global profiling (instrumented sites go back to zero cost)."""
    global _RECORDER
    _RECORDER = None
