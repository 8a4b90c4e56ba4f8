"""The search-engine facade used by the harvesting loop.

The paper's workflow (Fig. 1) fires each selected query against a search
engine with the entity's seed query appended, so that every result page is
about the target entity.  Over the offline corpus this is equivalent to
ranking only within the target entity's page universe, which is exactly what
:class:`SearchEngine` does: it indexes the whole corpus *once* (see
``index_builds``), serves every entity through a
:meth:`~repro.search.index.InvertedIndex.view` of that index scoped to the
entity's pages, and ranks with a pluggable retrieval model resolved from
the ranker registry (:mod:`repro.search.rankers`; ``dirichlet`` and
``bm25`` are built in, ``k = 5`` results per query in the paper).

Repeated identical queries — common across harvesting runs that share an
engine, e.g. every method's runs for one (entity, aspect) firing the same
popular queries — are answered from an LRU result cache keyed by
``(entity_id, query, top_k)``.  :meth:`SearchEngine.retrieve_many` ranks a
whole query list for one entity in one batched ranker call, outside the
cache and the fetch accounting: it is how the ideal selector feeds its
candidate pool to the engine.

The engine also keeps *fetch accounting*: how many queries were fired and
how many result pages were downloaded, plus a simulated per-page fetch cost
so that the efficiency experiment (Fig. 14) can contrast selection time with
fetch time without actually sleeping.  Cache hits and misses are counted in
the same :class:`FetchStatistics` structure.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.corpus import Corpus
from repro.corpus.document import Page
from repro.search.index import InvertedIndex
from repro.search.rankers import (
    RANKER_BM25,
    RANKER_DIRICHLET,
    Ranker,
    is_registered,
    make_ranker,
    ranker_names,
)


@dataclass(frozen=True)
class SearchResult:
    """One ranked result: a page and its retrieval score."""

    page_id: str
    score: float


@dataclass
class FetchStatistics:
    """Accounting of the (simulated) cost of talking to the search engine."""

    queries_fired: int = 0
    pages_fetched: int = 0
    simulated_fetch_seconds: float = 0.0
    queries_by_entity: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    def record(self, entity_id: str, num_results: int, per_page_cost: float) -> None:
        """Record one fired query and its fetched results."""
        self.queries_fired += 1
        self.pages_fetched += num_results
        self.simulated_fetch_seconds += per_page_cost * num_results
        self.queries_by_entity[entity_id] = self.queries_by_entity.get(entity_id, 0) + 1

    def record_cache(self, hit: bool) -> None:
        """Record one result-cache lookup."""
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of ranking requests served from the result cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """A plain-JSON summary (used by benchmark matrices)."""
        return {
            "queries_fired": self.queries_fired,
            "pages_fetched": self.pages_fetched,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


#: Result-cache key: ``(entity_id, query tuple, top_k)``.
CacheKey = Tuple[str, Tuple[str, ...], int]


@dataclass
class RunFetchAccounting:
    """Per-harvest-run fetch accounting (picklable, travels with results).

    The shared engine's :class:`FetchStatistics` live in whichever process
    ran the harvest — a process backend throws them away with the
    worker.  Each harvesting run therefore keeps its *own* account of what
    it asked the engine for: fired queries, fetched pages, simulated fetch
    cost, and the ordered result-cache keys it looked up.  Orchestrators
    merge these per-run accounts with :func:`merge_run_accounting`, which
    is identical on every backend because it only reads result payloads.

    Cache hits are deliberately *not* classified here: whether a lookup
    hits depends on what ran before it on the same engine, which is a
    scheduling fact.  Recording the keys and replaying them at merge time
    yields a deterministic batch-level classification instead.
    """

    queries_fired: int = 0
    pages_fetched: int = 0
    simulated_fetch_seconds: float = 0.0
    queries_by_entity: Dict[str, int] = field(default_factory=dict)
    cache_keys: List[CacheKey] = field(default_factory=list)

    def record(self, entity_id: str, num_results: int, per_page_cost: float) -> None:
        """Record one fired query and its fetched results."""
        self.queries_fired += 1
        self.pages_fetched += num_results
        self.simulated_fetch_seconds += per_page_cost * num_results
        self.queries_by_entity[entity_id] = self.queries_by_entity.get(entity_id, 0) + 1

    def record_lookup(self, key: CacheKey) -> None:
        """Record one result-cache key lookup (hit/miss decided at merge)."""
        self.cache_keys.append(key)


def merge_run_accounting(accountings: Sequence[Optional[RunFetchAccounting]]
                         ) -> FetchStatistics:
    """Fold per-run accounts into one batch-level :class:`FetchStatistics`.

    Counters are summed; cache lookups are *replayed* in run order — a key
    already seen earlier in the merged stream counts as a hit.  For a fresh
    serial engine (no eviction) this reproduces the engine's own hit/miss
    accounting exactly, and because it reads only result payloads, every
    backend — serial or process — merges to the same
    statistics.  ``None`` entries (results from before accounting existed)
    are skipped.
    """
    stats = FetchStatistics()
    seen: set = set()
    for accounting in accountings:
        if accounting is None:
            continue
        stats.queries_fired += accounting.queries_fired
        stats.pages_fetched += accounting.pages_fetched
        stats.simulated_fetch_seconds += accounting.simulated_fetch_seconds
        for entity_id, count in accounting.queries_by_entity.items():
            stats.queries_by_entity[entity_id] = (
                stats.queries_by_entity.get(entity_id, 0) + count)
        for key in accounting.cache_keys:
            stats.record_cache(hit=key in seen)
            seen.add(key)
    return stats


class SearchEngine:
    """Entity-scoped top-k retrieval over an offline corpus.

    Parameters
    ----------
    corpus:
        The offline corpus.
    ranker:
        Name of a registered retrieval model (see
        :func:`repro.search.rankers.ranker_names`).
    top_k:
        Default number of results per query.
    mu / bm25_k1 / bm25_b:
        Convenience parameters for the two built-in rankers.
    ranker_params:
        Extra keyword parameters passed to the ranker factory; overrides the
        convenience parameters and is the way to configure custom rankers.
    result_cache_size:
        Capacity of the LRU result cache (0 disables caching).
    """

    def __init__(self, corpus: Corpus, ranker: str = RANKER_DIRICHLET,
                 top_k: int = 5, mu: float = 100.0,
                 bm25_k1: float = 1.2, bm25_b: float = 0.75,
                 simulated_fetch_seconds_per_page: float = 2.5,
                 ranker_params: Optional[Dict[str, object]] = None,
                 result_cache_size: int = 4096) -> None:
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if not is_registered(ranker):
            raise ValueError(f"unknown ranker {ranker!r}; available: {ranker_names()}")
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be non-negative")
        self.corpus = corpus
        self.ranker_name = ranker
        self.top_k = top_k
        self.mu = mu
        self.bm25_k1 = bm25_k1
        self.bm25_b = bm25_b
        self.simulated_fetch_seconds_per_page = simulated_fetch_seconds_per_page
        self.ranker_params = self._default_ranker_params(ranker)
        if ranker_params:
            self.ranker_params.update(ranker_params)
        self.result_cache_size = result_cache_size
        self.fetch_statistics = FetchStatistics()
        #: Number of full corpus indexing passes performed (1 after first use).
        self.index_builds = 0
        #: Number of times the corpus supplied a pre-built shared index
        #: (store-backed corpora; see :meth:`shared_index`).
        self.index_attaches = 0
        self._shared_index: Optional[InvertedIndex] = None
        self._entity_views: Dict[str, InvertedIndex] = {}
        self._entity_rankers: Dict[str, Ranker] = {}
        self._result_cache: "OrderedDict[Tuple[str, Tuple[str, ...], int], Tuple[SearchResult, ...]]" = OrderedDict()
        # Callers may run several harvests of one engine on threads of
        # their own; the lock guards the caches and counters.
        self._lock = threading.Lock()

    def _default_ranker_params(self, ranker: str) -> Dict[str, object]:
        if ranker == RANKER_DIRICHLET:
            return {"mu": self.mu}
        if ranker == RANKER_BM25:
            return {"k1": self.bm25_k1, "b": self.bm25_b}
        return {}

    # -- Index management -----------------------------------------------------
    def shared_index(self) -> InvertedIndex:
        """The corpus-wide index, built on first use (one pass per corpus).

        A corpus that already carries its index — a store-backed corpus
        attached from a published segment exposes it via
        ``shared_index_supplier`` — is adopted as-is instead of re-indexed:
        the supplied index is an index over the same matrix this build
        produces (the store writer counted the same documents in the same
        sorted order), and ``index_attaches`` (not ``index_builds``) counts
        the adoption.
        """
        with self._lock:
            if self._shared_index is None:
                supplier = getattr(self.corpus, "shared_index_supplier", None)
                if supplier is not None:
                    self._shared_index = supplier()
                    self.index_attaches += 1
                else:
                    self._shared_index = InvertedIndex.from_documents(
                        {page.page_id: page.tokens for page in self.corpus.iter_pages()})
                    self.index_builds += 1
            return self._shared_index

    def _index_for(self, entity_id: str) -> InvertedIndex:
        with self._lock:
            view = self._entity_views.get(entity_id)
        if view is not None:
            return view
        pages = self.corpus.pages_of(entity_id)
        if not pages:
            raise KeyError(f"entity {entity_id!r} has no pages in the corpus")
        view = self.shared_index().view(p.page_id for p in pages)
        with self._lock:
            return self._entity_views.setdefault(entity_id, view)

    def _ranker_for(self, entity_id: str) -> Ranker:
        with self._lock:
            ranker = self._entity_rankers.get(entity_id)
        if ranker is not None:
            return ranker
        index = self._index_for(entity_id)
        ranker = make_ranker(self.ranker_name, index, **self.ranker_params)
        with self._lock:
            return self._entity_rankers.setdefault(entity_id, ranker)

    # -- Retrieval --------------------------------------------------------------
    def _validated_top_k(self, top_k: Optional[int]) -> int:
        """The per-call ``top_k`` (the engine default when ``None``), held
        to the constructor's rule: at least one result per query."""
        k = self.top_k if top_k is None else top_k
        if k < 1:
            raise ValueError(f"top_k must be positive, got {k}")
        return k

    def search(self, entity_id: str, query: Sequence[str],
               top_k: Optional[int] = None, record_fetch: bool = True,
               accounting: Optional[RunFetchAccounting] = None) -> List[SearchResult]:
        """Fire ``query`` for ``entity_id`` and return the top results.

        The entity's seed query is conceptually appended to ``query``; over
        the offline corpus that reduces to scoping the ranking to the
        entity's own pages, which is how the paper's experiments operate.

        ``accounting``, when given, receives a per-caller copy of the fetch
        and cache-lookup records (the engine's own statistics are recorded
        regardless) — the harvesting loop passes its run's account here so
        distributed backends can ship it home with the result.
        """
        k = self._validated_top_k(top_k)
        results = self._ranked_results(entity_id, tuple(query), k,
                                       accounting=accounting)
        if record_fetch:
            with self._lock:
                self.fetch_statistics.record(entity_id, len(results),
                                             self.simulated_fetch_seconds_per_page)
            if accounting is not None:
                accounting.record(entity_id, len(results),
                                  self.simulated_fetch_seconds_per_page)
        return list(results)

    def _ranked_results(self, entity_id: str, query: Tuple[str, ...], k: int,
                        accounting: Optional[RunFetchAccounting] = None
                        ) -> Tuple[SearchResult, ...]:
        key = (entity_id, query, k)
        if self.result_cache_size:
            if accounting is not None:
                accounting.record_lookup(key)
            with self._lock:
                cached = self._result_cache.get(key)
                if cached is not None:
                    self._result_cache.move_to_end(key)
                self.fetch_statistics.record_cache(hit=cached is not None)
            if cached is not None:
                return cached
        ranker = self._ranker_for(entity_id)
        ranked = ranker.rank(list(query), top_k=k, require_match=True)
        results = tuple(SearchResult(page_id=page_id, score=score)
                        for page_id, score in ranked)
        if self.result_cache_size:
            with self._lock:
                self._result_cache[key] = results
                self._result_cache.move_to_end(key)
                while len(self._result_cache) > self.result_cache_size:
                    self._result_cache.popitem(last=False)
        return results

    def fetch_pages(self, results: Sequence[SearchResult]) -> List[Page]:
        """Materialise result pages from the corpus."""
        return [self.corpus.get_page(r.page_id) for r in results]

    def retrieve_many(self, entity_id: str, queries: Sequence[Sequence[str]],
                      top_k: Optional[int] = None) -> List[List[Tuple[str, float]]]:
        """Each of ``queries``' top-k ``(page_id, score)`` pairs for ``entity_id``.

        Each list holds the pages and scores :meth:`search` would return for
        that query, in the same order, from one call to the entity ranker's
        ``rank_many``.  Nothing is fetched: no fetch is recorded, and the
        result cache is neither read nor filled, nor are its hit and miss
        counters touched.  The ideal selector uses it to feed its whole
        candidate pool to the engine (the paper's ideal solution "feeds
        each candidate query to the search engine", Sect. VI-A).
        """
        k = self._validated_top_k(top_k)
        return self._ranker_for(entity_id).rank_many(
            [list(query) for query in queries], top_k=k, require_match=True)

    def seed_results(self, entity_id: str, top_k: Optional[int] = None,
                     accounting: Optional[RunFetchAccounting] = None
                     ) -> List[SearchResult]:
        """Fire the entity's seed query ``q(0)`` and return the results.

        The seed query uniquely identifies the entity; within the entity's
        own page universe it behaves as a broad entity query, so we rank the
        entity's pages by the seed terms (name and seed attributes), which
        naturally favours hub-like pages mentioning the entity's name.
        """
        k = self._validated_top_k(top_k)
        entity = self.corpus.get_entity(entity_id)
        results = self.search(entity_id, list(entity.seed_query), top_k=k,
                              accounting=accounting)
        if results:
            return results
        # Degenerate corner: the seed terms may not literally occur on any
        # page; fall back to the entity's name tokens, then to arbitrary pages.
        results = self.search(entity_id, list(entity.name_tokens), top_k=k,
                              accounting=accounting)
        if results:
            return results
        pages = self.corpus.pages_of(entity_id)[:k]
        with self._lock:
            self.fetch_statistics.record(entity_id, len(pages),
                                         self.simulated_fetch_seconds_per_page)
        if accounting is not None:
            accounting.record(entity_id, len(pages),
                              self.simulated_fetch_seconds_per_page)
        return [SearchResult(page_id=p.page_id, score=0.0) for p in pages]

    # -- Introspection --------------------------------------------------------------
    def entity_index(self, entity_id: str) -> InvertedIndex:
        """The entity's view of the shared corpus index.

        Its statistics are those of a from-scratch index of the entity's
        pages (the LM-feedback baseline reads collection probabilities from
        it, dedup novelty its matching documents).
        """
        return self._index_for(entity_id)
