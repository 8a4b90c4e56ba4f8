"""The iterative harvesting loop of Fig. 1.

Starting from the entity's seed query, each iteration asks the query
selector for the next query, fires it against the search engine, and folds
the new result pages into the working set.  Each iteration's
:class:`IterationRecord` keeps selection (CPU) time apart from the
simulated fetch (I/O) cost, so that the efficiency experiment of Fig. 14
can be reproduced.  With profiling on (:mod:`repro.perf`), the
synchronous driver times each run as a ``harvest`` phase and the stepper
records every selection as a ``selection`` sample, whichever driver runs
it.

The loop itself lives in :class:`~repro.core.stepper.HarvestStepper`, a
resumable state machine split at the fetch boundary; :meth:`Harvester.harvest`
is a thin synchronous driver over it.  What sits between a step's
``next_action()`` and its ``feed()`` is a pluggable
:class:`~repro.search.clients.SearchClient`: the default
:class:`~repro.search.clients.InstantClient` calls the in-process engine
directly (the historical behaviour, bit-for-bit), while
:class:`~repro.search.clients.SimulatedServiceClient` models a real search
service — latency tails, QPS caps, timeouts and retries — and the async
:class:`~repro.serving.runner.ServingRunner` drives many steppers
concurrently by awaiting at that same boundary.

Batched runs go through :meth:`Harvester.harvest_many`: each
:class:`HarvestJob` is an independent harvesting run (own session, own
seeded RNG, own selector instance), so job batches can be delegated to any
:class:`~repro.exec.backends.ExecutionBackend` — serial, thread pool or
sharded process pool — while remaining bit-for-bit reproducible: results
are returned in job order and every job's randomness derives only from its
seed, never from scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro import perf
from repro.aspects.relevance import RelevanceFunction
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainModel
from repro.core.queries import Query
from repro.core.selection import QuerySelector
from repro.core.session import HarvestSession, NgramTableCache
from repro.core.stepper import Done, HarvestStepper
from repro.corpus.corpus import Corpus
from repro.exec.backends import ExecutionBackend, resolve_backend
from repro.search.clients import InstantClient, SearchClient
from repro.search.engine import RunFetchAccounting, SearchEngine
from repro.utils.rng import SeededRandom


@dataclass(frozen=True)
class IterationRecord:
    """What happened in one iteration of the harvesting loop.

    ``selection_seconds`` is the wall-clock time of exactly the
    ``selector.select`` call that chose ``query``.
    ``simulated_fetch_seconds`` is the *paper's* accounting — result count
    times the engine's configured per-page cost, the quantity Fig. 14
    contrasts with selection time.  ``client_seconds`` is the measured (or
    simulated-service) client latency of the fetch, including retries and
    backoff; it is 0.0 for the in-process instant client.
    """

    index: int
    query: Query
    result_page_ids: tuple
    new_page_ids: tuple
    selection_seconds: float
    simulated_fetch_seconds: float
    client_seconds: float = 0.0


@dataclass
class HarvestResult:
    """The outcome of one complete harvesting run."""

    entity_id: str
    aspect: str
    selector_name: str
    seed_page_ids: List[str] = field(default_factory=list)
    iterations: List[IterationRecord] = field(default_factory=list)
    #: This run's own account of engine traffic (fired queries, fetched
    #: pages, cache-key lookups).  It travels with the result across
    #: process boundaries, so orchestrators can merge batch-level fetch
    #: statistics identically on every backend — the shared engine's
    #: counters stay in whichever process ran the loop.
    fetch_accounting: Optional[RunFetchAccounting] = None

    @property
    def num_queries(self) -> int:
        """Number of non-seed queries fired."""
        return len(self.iterations)

    def queries(self) -> List[Query]:
        """The fired queries in order."""
        return [record.query for record in self.iterations]

    def gathered_after(self, num_queries: Optional[int] = None) -> List[str]:
        """Cumulative gathered page ids after ``num_queries`` iterations.

        The seed-query results count as gathered (iteration 0).  ``None``
        means "after all iterations"; a negative count is rejected (a slice
        would silently answer for another budget).
        """
        if num_queries is not None and num_queries < 0:
            raise ValueError(f"num_queries must be >= 0, got {num_queries}")
        limit = len(self.iterations) if num_queries is None else num_queries
        gathered: List[str] = []
        seen = set()
        for page_id in self.seed_page_ids:
            if page_id not in seen:
                seen.add(page_id)
                gathered.append(page_id)
        for record in self.iterations[:limit]:
            for page_id in record.result_page_ids:
                if page_id not in seen:
                    seen.add(page_id)
                    gathered.append(page_id)
        return gathered


@dataclass
class HarvestJob:
    """One harvesting run, ready to execute (single-use: the selector
    instance must be fresh, exactly as for :meth:`Harvester.harvest`)."""

    entity_id: str
    aspect: str
    selector: QuerySelector
    relevance: RelevanceFunction
    num_queries: Optional[int] = None
    domain_model: Optional[DomainModel] = None
    seed: Optional[int] = None


def drive_stepper(stepper: HarvestStepper, client: SearchClient) -> HarvestResult:
    """The synchronous driver loop: fetch every action in-line.

    With the default :class:`~repro.search.clients.InstantClient` this
    reproduces the historical monolithic loop bit-for-bit (same engine
    calls in the same order, same RNG streams).  Any other client slots in
    between selection and ingestion without the stepper noticing.
    """
    action = stepper.next_action()
    while not isinstance(action, Done):
        outcome = client.fetch(action, accounting=stepper.accounting)
        stepper.feed(outcome.results, outcome.pages,
                     client_seconds=outcome.latency_seconds)
        action = stepper.next_action()
    return stepper.result


class Harvester:
    """Drives the iterative harvesting loop for one corpus and engine.

    ``client`` is the default :class:`~repro.search.clients.SearchClient`
    used by :meth:`harvest` when none is passed per call; ``None`` means
    the in-process instant client (the paper's semantics).
    """

    def __init__(self, corpus: Corpus, engine: SearchEngine,
                 config: Optional[L2QConfig] = None,
                 client: Optional[SearchClient] = None) -> None:
        self.corpus = corpus
        self.engine = engine
        self.config = config if config is not None else L2QConfig()
        self.config.validate()
        self.client = client
        #: Every entity's n-gram table, shared by all the sessions this
        #: harvester builds (see :mod:`repro.core.session`).
        self.ngram_tables: NgramTableCache = {}

    def harvest_job(self, job: HarvestJob,
                    client: Optional[SearchClient] = None) -> HarvestResult:
        """Execute one :class:`HarvestJob`."""
        return self.harvest(
            entity_id=job.entity_id,
            aspect=job.aspect,
            selector=job.selector,
            relevance=job.relevance,
            num_queries=job.num_queries,
            domain_model=job.domain_model,
            seed=job.seed,
            client=client,
        )

    def harvest_many(self, jobs: Sequence[HarvestJob], workers: int = 1,
                     backend: Union[None, str, ExecutionBackend] = None
                     ) -> List[HarvestResult]:
        """Execute a batch of jobs on an execution backend.

        ``backend`` is a registered backend name, a ready instance, or
        ``None`` for the historical behaviour (``workers=1`` serial,
        ``workers>1`` thread pool).  Results are returned in job order.
        Every job owns its session, seeded RNG and selector, and the shared
        engine's caches are thread-safe with order-independent contents, so
        every backend reproduces serial bit-for-bit (queries, result pages,
        seed pages — wall-clock timings naturally vary).

        The process backend pickles this harvester (corpus, engine
        configuration — the engine rebuilds its index per worker) and the
        job payloads into contiguous shards.  Worker-side engine counters
        stay in their workers, but every result carries its run's
        :class:`~repro.search.engine.RunFetchAccounting`; merge them with
        :func:`~repro.search.engine.merge_run_accounting` for batch-level
        fetch statistics that are identical on every backend.

        The ``serving`` backend (see :mod:`repro.serving.runner`) drives
        the same jobs through asyncio steppers concurrently, awaiting at
        the fetch boundary; with the instant client it too is bit-identical
        to serial.

        Note: shared memo caches reachable from jobs (classifier relevance
        labels, index-view postings) rely on the GIL making dict
        get-then-set races benign under the thread backend — every thread
        computes the same value, so last-write-wins is harmless.  On a
        free-threaded (no-GIL) build those caches would need the same lock
        treatment as the engine's.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        jobs = list(jobs)
        if not jobs:
            return []
        engine = resolve_backend(backend, workers=workers)
        return engine.map(self.harvest_job, jobs)

    def harvest(self, entity_id: str, aspect: str, selector: QuerySelector,
                relevance: RelevanceFunction, num_queries: Optional[int] = None,
                domain_model: Optional[DomainModel] = None,
                seed: Optional[int] = None,
                client: Optional[SearchClient] = None) -> HarvestResult:
        """Run the full loop of Fig. 1 for one entity and aspect.

        Parameters
        ----------
        entity_id / aspect:
            The harvesting target.
        selector:
            A *fresh* query-selection strategy instance.
        relevance:
            The learner-visible relevance function (aspect classifier).
        num_queries:
            Number of queries to fire after the seed (defaults to the
            configured ``num_queries``).
        domain_model:
            Domain-phase knowledge, if the strategy is domain aware.
        seed:
            Randomness seed for this run (defaults to the configured seed).
        client:
            The search client performing the fetches (defaults to the
            harvester's configured client, then to the in-process
            :class:`~repro.search.clients.InstantClient`).

        With profiling on, the whole run is timed as one ``harvest``
        phase.  Only synchronous drivers record that phase: serving
        sessions interleave on one event loop, so their wall time is not
        one run's.
        """
        with perf.phase("harvest", entity=entity_id, aspect=aspect,
                        selector=selector.name):
            stepper = self.stepper(entity_id, aspect, selector, relevance,
                                   num_queries, domain_model, seed)
            if client is None:
                client = self.client if self.client is not None \
                    else InstantClient(self.engine)
            return drive_stepper(stepper, client)

    def stepper(self, entity_id: str, aspect: str, selector: QuerySelector,
                relevance: RelevanceFunction, num_queries: Optional[int] = None,
                domain_model: Optional[DomainModel] = None,
                seed: Optional[int] = None) -> HarvestStepper:
        """Build the resumable state machine for one harvesting run.

        Sets up the session (seeded identically to the historical inline
        loop), the result skeleton and the run's fetch accounting; the
        caller drives it — synchronously via :func:`drive_stepper`, or
        concurrently via the serving runner.
        """
        entity = self.corpus.get_entity(entity_id)
        budget = num_queries if num_queries is not None else self.config.num_queries
        rng = SeededRandom(seed if seed is not None else self.config.random_seed)
        session = HarvestSession(
            corpus=self.corpus,
            engine=self.engine,
            entity=entity,
            aspect=aspect,
            relevance=relevance,
            config=self.config,
            rng=rng.spawn(entity_id, aspect, selector.name),
            domain_model=domain_model,
            ngram_tables=self.ngram_tables,
        )
        accounting = RunFetchAccounting()
        result = HarvestResult(entity_id=entity_id, aspect=aspect,
                               selector_name=selector.name,
                               fetch_accounting=accounting)
        return HarvestStepper(
            session=session,
            selector=selector,
            result=result,
            accounting=accounting,
            budget=budget,
            simulated_fetch_seconds_per_page=self.engine.simulated_fetch_seconds_per_page,
        )

    def stepper_for_job(self, job: HarvestJob) -> HarvestStepper:
        """Build the state machine for one :class:`HarvestJob`."""
        return self.stepper(job.entity_id, job.aspect, job.selector,
                            job.relevance, num_queries=job.num_queries,
                            domain_model=job.domain_model, seed=job.seed)
