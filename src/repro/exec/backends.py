"""Pluggable execution backends: one orchestration API, three engines.

Every fan-out site in the project funnels through the same tiny contract:
an :class:`ExecutionBackend` maps a callable over a list of payloads and
returns the results *in payload order*.  :meth:`Harvester.harvest_many`
maps harvest jobs.  :meth:`ExecutionBackend.map_tasks` schedules one task
per payload: a distributed :class:`~repro.eval.runner.ExperimentRunner`
ships its split batches that way, and a
:class:`~repro.eval.scenario_sweep.ScenarioSweep` or a campaign ships its
(domain, scenario) cells that way on every backend, each cell running its
own harvests serially.
Because every job's randomness derives only from its seed (never from
scheduling), swapping the backend changes wall-clock behaviour but not one
bit of the results.

Three engines are built in and registered through the shared
:class:`~repro.utils.registry.NamedRegistry`:

* ``serial`` — a plain in-order loop; the reference semantics.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; right for
  workloads dominated by lock-free CPU work under the GIL plus simulated
  I/O, and for shared-memory caches (one engine, one result cache).
* ``process`` — multiprocess execution: :meth:`~ExecutionBackend.map`
  splits payloads into at most ``workers`` contiguous shards, each shipped
  to a worker process and executed as an in-order loop there, so
  process-local caches — rebuilt corpora, trained classifier suites,
  search indexes — amortise across a shard; ``map_tasks`` submits one pool
  task per payload, so idle workers steal the next one.  Payloads and the
  mapped callable must be picklable; results travel back by pickle too.

Custom backends register the same way rankers and scenarios do::

    from repro.exec import register_backend

    @register_backend("my-cluster")
    def _my_cluster(workers: int = 8) -> MyClusterBackend:
        return MyClusterBackend(workers)
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar, Union

from repro.utils.registry import NamedRegistry

T = TypeVar("T")
R = TypeVar("R")

BACKEND_SERIAL = "serial"
BACKEND_THREAD = "thread"
BACKEND_PROCESS = "process"
BACKEND_SERVING = "serving"


class ExecutionBackend:
    """Contract shared by all execution engines.

    Attributes
    ----------
    name:
        Registry name of the engine.
    workers:
        Degree of parallelism (1 for the serial engine).
    distributed:
        True when jobs execute in *another process*: payloads must be
        picklable and in-memory side effects (cache fills, statistics
        counters) stay in the worker instead of the caller's objects.
        Orchestrators use this flag to choose spec-based payloads over
        live object graphs.
    """

    name: str = "abstract"
    workers: int = 1
    distributed: bool = False

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item and return results in item order."""
        raise NotImplementedError

    def map_tasks(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Like :meth:`map`, but schedule every item independently.

        For items that are already coarse, self-contained batches (e.g. the
        split-first :class:`~repro.exec.specs.HarvestBatchSpec` payloads),
        contiguous sharding would pin each batch to a fixed worker and lose
        load balance.  ``map_tasks`` asks the engine for per-item
        scheduling — on the process backend every item becomes its own pool
        task, so idle workers steal the next pending batch.  In-process
        engines have no sharding to bypass; the default simply delegates to
        :meth:`map`.  Results are returned in item order either way.
        """
        return self.map(fn, items)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """The reference engine: a plain in-order loop on the calling thread."""

    name = BACKEND_SERIAL

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """Fan out across a thread pool (shared memory, GIL-interleaved)."""

    name = BACKEND_THREAD

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(fn, items))


def _run_shard(fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
    """Execute one shard serially inside a worker process.

    Module-level so it pickles by reference under every start method.
    """
    return [fn(item) for item in items]


class ProcessBackend(ExecutionBackend):
    """Sharded multiprocess execution.

    The payload list is cut into at most ``workers`` contiguous shards;
    each shard becomes one task in a :class:`ProcessPoolExecutor` and runs
    as an in-order loop in its worker.  One shard therefore pickles the
    mapped callable (and anything it closes over, e.g. a bound method's
    instance) exactly once, and process-local caches amortise across all
    payloads of the shard.

    The worker pool is created lazily and persists across :meth:`map`
    calls, so those process-local caches (rebuilt corpora, prepared
    splits) also amortise across calls — e.g. across the per-split batches
    of a multi-split evaluation.  Call :meth:`close` (or drop the backend)
    to release the workers.
    """

    name = BACKEND_PROCESS
    distributed = True

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        workers = workers if workers is not None else (multiprocessing.cpu_count() or 1)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            # Prefer fork where available: no re-import, cheap corpus reuse.
            start_method = "fork" if "fork" in available else available[0]
        elif start_method not in available:
            raise ValueError(f"start method {start_method!r} not available; "
                             f"options: {available}")
        self.workers = workers
        self.start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None

    def shards(self, items: Sequence[T]) -> List[List[T]]:
        """Cut ``items`` into at most ``workers`` contiguous shards."""
        items = list(items)
        if not items:
            return []
        shard_count = min(self.workers, len(items))
        size = -(-len(items) // shard_count)  # ceil division
        return [items[start:start + size] for start in range(0, len(items), size)]

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
        shutdown waits by default), so one poisoned batch could hide its
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

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        shards = self.shards(items)
        if not shards:
            return []
        try:
            futures = [self._executor().submit(_run_shard, fn, shard)
                       for shard in shards]
            results: List[R] = []
            for future in futures:
                results.extend(future.result())
            return results
        except Exception:
            self._abort()
            raise

    def map_tasks(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """One pool task per item: work-stealing scheduling, results in order.

        The per-item pickling cost this pays (vs one pickle per shard in
        :meth:`map`) only makes sense for coarse payloads — whole splits or
        sweep cells — where load balance matters more than dispatch
        overhead.
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


_REGISTRY = NamedRegistry("backend")


def register_backend(name: str, factory: Callable[..., ExecutionBackend] = None,
                     *, overwrite: bool = False):
    """Register a backend factory (decorator or plain call)."""
    return _REGISTRY.register(name, factory, overwrite=overwrite)


def make_backend(name: str, workers: int = 1, **params) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    return _REGISTRY.make(name, workers=workers, **params)


def backend_names() -> List[str]:
    """Names of all registered backends, sorted."""
    return _REGISTRY.names()


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves to a registered backend."""
    return name in _REGISTRY


def resolve_backend(backend: Union[None, str, ExecutionBackend],
                    workers: int = 1) -> ExecutionBackend:
    """Coerce a backend argument (name, instance or None) to an instance.

    ``None`` preserves the historical ``workers=N`` behaviour: one worker
    means serial, several mean a thread pool.  A string resolves through
    the registry with ``workers`` forwarded; an instance is returned as-is
    (its own worker count wins).
    """
    if backend is None:
        return SerialBackend() if workers == 1 else ThreadBackend(workers)
    if isinstance(backend, str):
        return make_backend(backend, workers=workers)
    if isinstance(backend, ExecutionBackend):
        return backend
    raise TypeError(f"backend must be None, a registered name or an "
                    f"ExecutionBackend, got {type(backend).__name__}")


@register_backend(BACKEND_SERIAL)
def _serial_backend(workers: int = 1) -> SerialBackend:
    del workers  # The serial engine is single-worker by definition.
    return SerialBackend()


@register_backend(BACKEND_THREAD)
def _thread_backend(workers: int = 4) -> ThreadBackend:
    return ThreadBackend(workers)


@register_backend(BACKEND_PROCESS)
def _process_backend(workers: int = 4,
                     start_method: Optional[str] = None) -> ProcessBackend:
    return ProcessBackend(workers, start_method=start_method)


@register_backend(BACKEND_SERVING)
def _serving_backend(workers: int = 8, **params) -> ExecutionBackend:
    # Lazy import: repro.serving imports the harvester, which imports this
    # module — resolving the backend class at build time breaks the cycle.
    from repro.serving.runner import ServingBackend

    return ServingBackend(workers=workers, **params)
