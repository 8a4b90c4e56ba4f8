"""The iterative harvesting loop of Fig. 1.

Starting from the entity's seed query, each iteration asks the query
selector for the next query, fires it against the search engine, and folds
the new result pages into the working set.  Each iteration's
:class:`IterationRecord` keeps selection (CPU) time apart from the
simulated fetch (I/O) cost, so that the efficiency experiment of Fig. 14
can be reproduced.  With profiling on (:mod:`repro.perf`), each run is
timed as a ``harvest`` phase and every selection is recorded as a
``selection`` sample.

Every fetch, the seed's and each selected query's, goes through the
harvester's :class:`~repro.search.clients.SearchClient`: the engine call,
charged to the run's own fetch accounting, plus the result pages.

Batched runs go through :meth:`Harvester.harvest_many`: each
:class:`HarvestJob` is an independent harvesting run (own session, own
seeded RNG, own selector instance), so job batches can be delegated to any
:class:`~repro.exec.backends.ExecutionBackend` — serial or sharded process
pool — while remaining bit-for-bit reproducible: results are returned in
job order and every job's randomness derives only from its seed, never
from scheduling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro import perf
from repro.aspects.relevance import RelevanceFunction
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainModel
from repro.core.queries import Query
from repro.core.selection import QuerySelector
from repro.core.session import HarvestSession, NgramTableCache
from repro.corpus.corpus import Corpus
from repro.exec.backends import ExecutionBackend, resolve_backend
from repro.search.clients import SearchClient
from repro.search.engine import RunFetchAccounting, SearchEngine
from repro.utils.rng import SeededRandom


@dataclass(frozen=True)
class IterationRecord:
    """What happened in one iteration of the harvesting loop.

    ``selection_seconds`` is the wall-clock time of exactly the
    ``selector.select`` call that chose ``query``.
    ``simulated_fetch_seconds`` is the *paper's* accounting — result count
    times the engine's configured per-page cost, the quantity Fig. 14
    contrasts with selection time.
    """

    index: int
    query: Query
    result_page_ids: tuple
    new_page_ids: tuple
    selection_seconds: float
    simulated_fetch_seconds: float


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


class Harvester:
    """Drives the iterative harvesting loop for one corpus and engine.

    Callers may run several harvests of one harvester on threads of their
    own.  The engine locks its caches; the memo caches jobs share (n-gram
    tables, classifier relevance labels, ideal pools) rely on the GIL
    making their get-then-set races benign, since every thread computes
    the same value.  A free-threaded (no-GIL) build would need locks there
    too.
    """

    def __init__(self, corpus: Corpus, engine: SearchEngine,
                 config: Optional[L2QConfig] = None) -> None:
        self.corpus = corpus
        self.engine = engine
        self.config = config if config is not None else L2QConfig()
        self.config.validate()
        self.client = SearchClient(engine)
        #: Every entity's n-gram table, shared by all the sessions this
        #: harvester builds (see :mod:`repro.core.session`).
        self.ngram_tables: NgramTableCache = {}

    def harvest_job(self, job: HarvestJob) -> HarvestResult:
        """Execute one :class:`HarvestJob`."""
        return self.harvest(
            entity_id=job.entity_id,
            aspect=job.aspect,
            selector=job.selector,
            relevance=job.relevance,
            num_queries=job.num_queries,
            domain_model=job.domain_model,
            seed=job.seed,
        )

    def harvest_many(self, jobs: Sequence[HarvestJob], workers: int = 1,
                     backend: Union[None, str, ExecutionBackend] = None
                     ) -> List[HarvestResult]:
        """Execute a batch of jobs on an execution backend.

        ``backend`` is a registered backend name, a ready instance, or
        ``None`` for the ``workers`` default (1 = serial, more = process
        pool).  Results are returned in job order.  Every job owns its
        session, seeded RNG and selector, so every backend reproduces
        serial bit-for-bit (queries, result pages, seed pages — wall-clock
        timings naturally vary).

        The process backend pickles this harvester (corpus, engine
        configuration — the engine rebuilds its index per worker) and the
        job payloads into contiguous shards.  Worker-side engine counters
        stay in their workers, but every result carries its run's
        :class:`~repro.search.engine.RunFetchAccounting`; merge them with
        :func:`~repro.search.engine.merge_run_accounting` for batch-level
        fetch statistics that are identical on every backend.
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
                seed: Optional[int] = None) -> HarvestResult:
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
            configured ``num_queries``).  The run ends early when the
            selector returns ``None``.
        domain_model:
            Domain-phase knowledge, if the strategy is domain aware.
        seed:
            Randomness seed for this run (defaults to the configured seed).

        With profiling on, the whole run is timed as one ``harvest``
        phase, and each iteration's selection time is recorded as a
        ``selection`` sample.
        """
        with perf.phase("harvest", entity=entity_id, aspect=aspect,
                        selector=selector.name):
            entity = self.corpus.get_entity(entity_id)
            budget = num_queries if num_queries is not None \
                else self.config.num_queries
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
            per_page_cost = self.engine.simulated_fetch_seconds_per_page

            results, pages = self.client.fetch(entity_id, accounting=accounting)
            session.add_pages(pages)
            result.seed_page_ids = [r.page_id for r in results]
            selector.prepare(session)

            for index in range(budget):
                start = time.perf_counter()
                query = selector.select(session)
                selection_seconds = time.perf_counter() - start
                if query is None:
                    break
                results, pages = self.client.fetch(entity_id, query,
                                                   accounting=accounting)
                new_pages = session.add_pages(pages)
                session.record_query(query)
                perf.record("selection", selection_seconds,
                            selector=selector.name)
                result.iterations.append(IterationRecord(
                    index=index,
                    query=query,
                    result_page_ids=tuple(r.page_id for r in results),
                    new_page_ids=tuple(p.page_id for p in new_pages),
                    selection_seconds=selection_seconds,
                    simulated_fetch_seconds=len(results) * per_page_cost,
                ))
                selector.observe(session, query, new_pages)
            return result
