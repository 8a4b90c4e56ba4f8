"""Async serving runner: many harvest sessions, one event loop.

The :class:`~repro.core.stepper.HarvestStepper` split the harvesting loop
at the fetch boundary; this module exploits it.  A :class:`ServingRunner`
drives N entity sessions concurrently on one asyncio event loop: each
session runs its CPU-bound selection on the loop thread, hands the fetch
action to a :class:`~repro.search.clients.SearchClient`, then *awaits* the
client's (simulated) latency — and while it sleeps, other sessions select
and ingest.  That is exactly the shape of a production harvesting fleet:
selection compute overlapping search-service I/O.

Determinism contract (the acceptance criterion of the serving PR): the
session *results* and the deterministic *metrics* block of the report are
identical across runs and across concurrency levels, because every
stochastic draw is keyed by ``(client seed, request key)`` rather than by
arrival order.  Only wall-clock figures (sessions/sec, elapsed time) and
the token-bucket throttle waits — inherently shared-timeline quantities —
vary, and they are reported in a separate ``wall_clock`` block that
byte-level comparisons exclude.

The runner is also packaged as the ``serving`` :class:`ExecutionBackend`
(registry name :data:`BACKEND_SERVING`), so ``harvest_many`` /
``--backend serving`` route whole job batches through it; with the default
instant client it is bit-identical to the serial backend.

Profiling (:mod:`repro.perf`) sees one ``selection`` sample per iteration,
recorded by the steppers exactly as on the synchronous path.  There is no
per-session ``harvest`` phase: sessions interleave on one loop, so no
wall-clock interval belongs to one session alone.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro.core.harvester import (
    HarvestJob,
    HarvestResult,
    Harvester,
    drive_stepper,
)
from repro.core.stepper import Done
from repro.exec.backends import ExecutionBackend
from repro.search.clients import ClientSpec, SearchClient, make_client
from repro.search.engine import merge_run_accounting

BACKEND_SERVING = "serving"

#: Default number of sessions in flight.
DEFAULT_CONCURRENCY = 8


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly-interpolated percentile of ``values`` (``q`` in [0, 1]).

    Deterministic and dependency-free (no numpy in the serving path);
    matches numpy's default ``linear`` interpolation.  Empty input gives
    0.0 so report assembly never branches.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[int(rank)]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass
class SessionRecord:
    """One driven session: its harvest result plus serving-side accounting.

    ``latency_seconds`` is the session's *simulated* end-to-end fetch
    latency — the sum of its requests' client latencies (retries and
    backoff included), a deterministic quantity.  Throttle waits are
    tracked separately (order-dependent, see module docstring).
    """

    entity_id: str
    aspect: str
    selector_name: str
    result: HarvestResult
    requests: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    exhausted_requests: int = 0
    latency_seconds: float = 0.0
    throttle_seconds: float = 0.0


@dataclass
class ServingReport:
    """What a serving run produced: results in job order plus metrics.

    :meth:`metrics` is the deterministic block — identical across runs,
    concurrency levels and scheduling interleavings under a fixed client
    seed; :meth:`wall_clock` holds everything that legitimately varies.
    Benchmark artifacts keep the two blocks apart so the determinism
    acceptance check can byte-compare one and ignore the other.
    """

    sessions: List[SessionRecord] = field(default_factory=list)
    concurrency: int = 1
    time_scale: float = 1.0
    wall_seconds: float = 0.0
    client_name: str = "instant"
    client_stats: dict = field(default_factory=dict)

    @property
    def results(self) -> List[HarvestResult]:
        """The harvest results, in job order."""
        return [record.result for record in self.sessions]

    def merged_accounting(self):
        """Batch-level fetch statistics (identical on every backend)."""
        return merge_run_accounting(
            [record.result.fetch_accounting for record in self.sessions])

    def metrics(self) -> dict:
        """The deterministic serving metrics block."""
        latencies = [record.latency_seconds for record in self.sessions]
        fetch_stats = self.merged_accounting()
        return {
            "sessions": len(self.sessions),
            "requests": sum(r.requests for r in self.sessions),
            "attempts": sum(r.attempts for r in self.sessions),
            "retries": sum(r.retries for r in self.sessions),
            "timeouts": sum(r.timeouts for r in self.sessions),
            "failures": sum(r.failures for r in self.sessions),
            "exhausted_requests": sum(r.exhausted_requests
                                      for r in self.sessions),
            "queries_fired": fetch_stats.queries_fired,
            "pages_fetched": fetch_stats.pages_fetched,
            "session_latency_p50": round(percentile(latencies, 0.50), 9),
            "session_latency_p99": round(percentile(latencies, 0.99), 9),
            "session_latency_mean": round(
                sum(latencies) / len(latencies), 9) if latencies else 0.0,
            "session_latency_total": round(sum(latencies), 9),
        }

    def wall_clock(self) -> dict:
        """The measured block: varies run to run, excluded from identity."""
        sessions_per_second = (len(self.sessions) / self.wall_seconds
                               if self.wall_seconds > 0 else 0.0)
        return {
            "wall_seconds": self.wall_seconds,
            "sessions_per_second": sessions_per_second,
            "throttle_seconds": sum(r.throttle_seconds
                                    for r in self.sessions),
        }

    def as_dict(self) -> dict:
        """Plain-JSON rendering for benchmark artifacts."""
        return {
            "concurrency": self.concurrency,
            "time_scale": self.time_scale,
            "client": self.client_name,
            "metrics": self.metrics(),
            "client_stats": dict(self.client_stats),
            "wall_clock": self.wall_clock(),
        }


class ServingRunner:
    """Drive many harvest sessions concurrently on one event loop.

    Parameters
    ----------
    harvester:
        The configured :class:`~repro.core.harvester.Harvester` (corpus,
        engine, config) whose steppers are driven.
    client:
        Client selector — ``None``/kind name/:class:`ClientSpec`/ready
        :class:`SearchClient`; one client instance is shared by all
        sessions (its token bucket models the shared service quota).
    concurrency:
        Maximum sessions in flight (an :class:`asyncio.Semaphore`).
    time_scale:
        Multiplier from simulated latency to real event-loop sleep.  1.0
        serves in "real time"; smaller values compress the simulation for
        fast benchmarks while leaving every deterministic metric — which
        is computed from *simulated* latencies — unchanged.
    """

    def __init__(self, harvester: Harvester,
                 client: Union[None, str, ClientSpec, SearchClient] = None,
                 concurrency: int = DEFAULT_CONCURRENCY,
                 time_scale: float = 1.0) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        self.harvester = harvester
        self.client = make_client(client, harvester.engine)
        self.concurrency = concurrency
        self.time_scale = time_scale

    def run(self, jobs: Sequence[HarvestJob]) -> ServingReport:
        """Serve a batch of jobs; results come back in job order."""
        jobs = list(jobs)
        start = time.perf_counter()
        sessions = asyncio.run(self._serve(jobs)) if jobs else []
        wall_seconds = time.perf_counter() - start
        return ServingReport(
            sessions=sessions,
            concurrency=self.concurrency,
            time_scale=self.time_scale,
            wall_seconds=wall_seconds,
            client_name=self.client.name,
            client_stats=self.client.stats.as_dict(),
        )

    async def _serve(self, jobs: Sequence[HarvestJob]) -> List[SessionRecord]:
        semaphore = asyncio.Semaphore(self.concurrency)
        return list(await asyncio.gather(
            *(self._drive(job, semaphore) for job in jobs)))

    async def _drive(self, job: HarvestJob,
                     semaphore: asyncio.Semaphore) -> SessionRecord:
        async with semaphore:
            stepper = self.harvester.stepper_for_job(job)
            record = SessionRecord(
                entity_id=job.entity_id, aspect=job.aspect,
                selector_name=job.selector.name, result=stepper.result)
            action = stepper.next_action()
            while not isinstance(action, Done):
                # Selection (CPU) ran inside next_action on the loop
                # thread; the fetch's engine call is CPU too.  The await
                # below is where the simulated service I/O happens — and
                # where every other session gets the loop.
                outcome = self.client.fetch(action,
                                            accounting=stepper.accounting)
                record.requests += 1
                record.attempts += outcome.attempts
                record.retries += outcome.retries
                record.timeouts += outcome.timeouts
                record.failures += outcome.failures
                record.exhausted_requests += 1 if outcome.exhausted else 0
                record.latency_seconds += outcome.latency_seconds
                record.throttle_seconds += outcome.throttle_seconds
                pause = (outcome.latency_seconds
                         + outcome.throttle_seconds) * self.time_scale
                # Always yield, so instant-client sessions interleave too.
                await asyncio.sleep(pause if pause > 0 else 0)
                stepper.feed(outcome.results, outcome.pages,
                             client_seconds=outcome.latency_seconds)
                action = stepper.next_action()
            return record


class ServingBackend(ExecutionBackend):
    """The serving runner packaged as an :class:`ExecutionBackend`.

    ``map`` recognises the canonical harvest fan-out — a bound
    ``Harvester.harvest_job`` mapped over :class:`HarvestJob` payloads —
    and routes it through a :class:`ServingRunner` (concurrent sessions,
    pluggable client).  Anything else falls back to an in-order loop, with
    steppers still driven through the configured client when the callable
    is harvest-shaped, so the backend honours the generic contract.

    ``workers`` is the serving concurrency.  Not ``distributed``: sessions
    share the caller's engine and caches, exactly like the thread backend.
    """

    name = BACKEND_SERVING

    def __init__(self, workers: int = DEFAULT_CONCURRENCY,
                 client: Union[None, str, ClientSpec, SearchClient] = None,
                 time_scale: float = 1.0) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.client = client
        self.time_scale = time_scale
        #: The last run's report (metrics outlive the ``map`` contract).
        self.last_report: Optional[ServingReport] = None

    @staticmethod
    def _harvester_of(fn: Callable) -> Optional[Harvester]:
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Harvester) and \
                getattr(fn, "__name__", "") == "harvest_job":
            return owner
        return None

    def map(self, fn: Callable, items: Sequence) -> List:
        items = list(items)
        harvester = self._harvester_of(fn)
        if harvester is not None and items and \
                all(isinstance(item, HarvestJob) for item in items):
            runner = ServingRunner(harvester, client=self.client,
                                   concurrency=self.workers,
                                   time_scale=self.time_scale)
            report = runner.run(items)
            self.last_report = report
            return report.results
        return [fn(item) for item in items]


def serve_jobs(harvester: Harvester, jobs: Sequence[HarvestJob],
               client: Union[None, str, ClientSpec, SearchClient] = None,
               concurrency: int = DEFAULT_CONCURRENCY,
               time_scale: float = 1.0) -> ServingReport:
    """Convenience one-shot: build a runner, serve the jobs, return report."""
    runner = ServingRunner(harvester, client=client, concurrency=concurrency,
                           time_scale=time_scale)
    return runner.run(jobs)


def harvest_serially(harvester: Harvester, jobs: Sequence[HarvestJob],
                     client: Union[None, str, ClientSpec, SearchClient] = None
                     ) -> List[HarvestResult]:
    """Reference semantics for the serving path: same client, no loop.

    Drives each job's stepper synchronously through the same (shared)
    client instance — the baseline the determinism tests compare the
    concurrent runner against.
    """
    live_client = make_client(client, harvester.engine)
    return [drive_stepper(harvester.stepper_for_job(job), live_client)
            for job in jobs]
