"""Execution backends: one orchestration API, two engines.

Every fan-out site in the project funnels through the same tiny contract:
:meth:`ExecutionBackend.map_tasks` applies a module-level function to
each of a list of picklable payloads, one task per payload, and returns
the results *in payload order*.  There is one unit of fan-out, the cell:
figures, scenario sweeps and campaigns all ship their cells that way
(:func:`~repro.eval.scenario_sweep.dispatch_cells`), each cell running its
own harvests serially.  Payloads are specs (:mod:`repro.exec.specs`),
never live object graphs: a worker rebuilds or attaches the corpus,
classifiers and engine it needs.  Because every
job's randomness derives only from its seed (never from scheduling),
swapping the backend changes wall-clock behaviour but not one bit of the
results.

Two engines make up the table :func:`make_backend` reads:

* ``serial`` — a plain in-order loop; the reference semantics.
* ``process`` — a persistent process pool; every payload becomes its own
  pool task, so idle workers steal the next one, and process-local caches
  (rebuilt corpora) amortise across the tasks a worker runs.  Results
  travel back by pickle.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

T = TypeVar("T")
R = TypeVar("R")

BACKEND_SERIAL = "serial"
BACKEND_PROCESS = "process"


class ExecutionBackend:
    """Contract shared by all execution engines.

    Attributes
    ----------
    name:
        Table name of the engine (see :func:`make_backend`).
    workers:
        Degree of parallelism (1 for the serial engine).
    distributed:
        True when jobs execute in *another process*: payloads must be
        picklable and in-memory side effects (cache fills, statistics
        counters) stay in the worker instead of the caller's objects.
        Orchestrators use this flag to ship specs instead of running on
        their own live objects.
    """

    name: str = "abstract"
    workers: int = 1
    distributed: bool = False

    def map_tasks(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, one task each; results in item order.

        Items are coarse, self-contained cells
        (:class:`~repro.exec.specs.SweepCellSpec`).  This default runs them
        in order on the calling thread.
        """
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """The reference engine: a plain in-order loop on the calling thread."""

    name = BACKEND_SERIAL


class ProcessBackend(ExecutionBackend):
    """Multiprocess execution: one pool task per payload.

    The worker pool is created lazily and persists across
    :meth:`map_tasks` calls, so process-local caches (rebuilt corpora)
    amortise across calls — e.g. across the dispatch rounds of a
    campaign.  Call :meth:`close` (or drop the backend) to
    release the workers.
    """

    name = BACKEND_PROCESS
    distributed = True

    def __init__(self, workers: Optional[int] = None) -> None:
        workers = workers if workers is not None else (multiprocessing.cpu_count() or 1)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        available = multiprocessing.get_all_start_methods()
        self.workers = workers
        # Fork where available: no re-import, cheap corpus reuse.
        self.start_method = "fork" if "fork" in available else available[0]
        self._pool: Optional[ProcessPoolExecutor] = None

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context(self.start_method)
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=context)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        Safe on a half-constructed instance (``__init__`` may raise before
        ``_pool`` exists, and ``__del__`` still runs).
        """
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown()
            self._pool = None

    def _abort(self) -> None:
        """Tear the pool down after a failed future, without waiting.

        ``close()`` would block behind every still-running sibling (a
        shutdown waits by default), so one poisoned cell could hide its
        error behind minutes of doomed work.  Aborting cancels the queued
        futures and returns immediately; in-flight ones finish in workers
        that are no longer ours.  The pool is dropped either way so a
        dead/broken pool cannot poison later calls.
        """
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()

    def map_tasks(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """One pool task per item: work-stealing scheduling, results in order.

        ``fn`` must be a module-level function, so that it pickles by
        reference; each item is pickled once, for its own task.
        """
        items = list(items)
        if not items:
            return []
        try:
            futures = [self._executor().submit(fn, item) for item in items]
            return [future.result() for future in futures]
        except Exception:
            self._abort()
            raise


#: The engines by name: each builds its backend from a worker count.
_ENGINES: Dict[str, Callable[[int], ExecutionBackend]] = {
    BACKEND_SERIAL: lambda workers: SerialBackend(),
    BACKEND_PROCESS: ProcessBackend,
}


def make_backend(name: str, workers: int = 1) -> ExecutionBackend:
    """The engine named ``name`` with ``workers`` workers (the serial
    engine has one, whatever ``workers`` says)."""
    try:
        engine = _ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; "
                         f"available: {backend_names()}") from None
    return engine(workers)


def backend_names() -> List[str]:
    """Names of the engines, sorted."""
    return sorted(_ENGINES)


def resolve_backend(backend: Union[None, str, ExecutionBackend],
                    workers: int = 1) -> ExecutionBackend:
    """Coerce a backend argument (name, instance or None) to an instance.

    ``None`` picks by ``workers``: one worker means serial, several mean
    the process pool.  A string names an engine of :func:`make_backend`,
    which gets ``workers``; an instance is returned as-is (its own worker
    count wins).
    """
    if backend is None:
        return SerialBackend() if workers == 1 else ProcessBackend(workers)
    if isinstance(backend, str):
        return make_backend(backend, workers=workers)
    if isinstance(backend, ExecutionBackend):
        return backend
    raise TypeError(f"backend must be None, an engine name or an "
                    f"ExecutionBackend, got {type(backend).__name__}")
