"""The mutable state of one harvesting run (one entity, one aspect).

A :class:`HarvestSession` is created by the harvester and passed to the
query selector on every iteration; it bundles everything a selection
strategy may legitimately look at: the current result pages, the
incrementally-maintained candidate-query statistics and graph tables, the
past queries, the learner-visible relevance function, the domain model and
the configuration.
Ground-truth relevance is *not* part of the session — only the oracle/ideal
selector receives it, explicitly.

The candidate statistics count over the entity's
:class:`~repro.core.queries.NgramTable`: every page of
``corpus.pages_of(entity)`` enumerated once with the entity's excluded
words.  The table is built on the session's first page fold and kept in
``ngram_tables``, a cache the harvester hands to every session it builds,
so all of an entity's sessions (and the ideal oracle's pool) share one
table; a session built without a cache keeps its own.  Sessions a caller
runs on threads of its own may build the same table twice; the builds are
identical, and the first one stored is the one every session uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.aspects.relevance import RelevanceFunction
from repro.core.candidates import CandidateStatistics
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainModel
from repro.core.queries import NgramTable, Query, QueryEnumerator
from repro.core.utility import GraphTables
from repro.corpus.corpus import Corpus
from repro.corpus.document import Entity, Page
from repro.dedup.novelty import NoveltyEstimator
from repro.search.engine import SearchEngine
from repro.utils.rng import SeededRandom

#: N-gram tables by ``(entity_id, max_query_length, min_query_word_length)``;
#: one cache serves one corpus (a harvester's).
NgramTableCache = Dict[Tuple[str, int, int], NgramTable]


def entity_ngram_table(cache: NgramTableCache, corpus: Corpus, entity: Entity,
                       config: L2QConfig) -> NgramTable:
    """The entity's n-gram table from ``cache``, built there on first use:
    every page of ``corpus.pages_of(entity)`` enumerated once, the entity's
    excluded words dropped."""
    key = (entity.entity_id, config.max_query_length, config.min_query_word_length)
    table = cache.get(key)
    if table is None:
        enumerator = QueryEnumerator(max_length=config.max_query_length,
                                     min_word_length=config.min_query_word_length,
                                     exclude_words=entity.excluded_words())
        table = cache.setdefault(key, NgramTable.build(
            enumerator, corpus.pages_of(entity.entity_id)))
    return table


@dataclass
class HarvestSession:
    """Mutable state shared between the harvester and the query selector."""

    corpus: Corpus
    engine: SearchEngine
    entity: Entity
    aspect: str
    relevance: RelevanceFunction
    config: L2QConfig
    rng: SeededRandom
    domain_model: Optional[DomainModel] = None
    current_pages: List[Page] = field(default_factory=list)
    past_queries: List[Query] = field(default_factory=list)
    fired_queries: Set[Query] = field(default_factory=set)
    ngram_tables: NgramTableCache = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        #: Candidate queries enumerated so far, kept in sync with
        #: ``current_pages``: every page added through :meth:`add_pages` is
        #: folded in exactly once, so selectors never re-enumerate the full
        #: working set (amortised O(new pages) per iteration).  The
        #: statistics double as the session's page-membership record.
        #: The table loader holds the session's parts, not the session, so
        #: a finished session is freed at once rather than by the cycle
        #: collector.
        self.candidates = CandidateStatistics(partial(
            entity_ngram_table, self.ngram_tables, self.corpus, self.entity,
            self.config))
        #: Graph rows of the candidates and pages met so far, shared by every
        #: selection of the session (see :class:`GraphTables`).  Only the
        #: session holds the tables, so they are freed with it: a selector
        #: or job kept after the harvest does not keep them alive.
        self.tables = GraphTables(self.corpus.type_system)
        #: Incremental MinHash index over gathered pages, maintained under
        #: the same O(new pages) contract as ``candidates``.  Only built
        #: when the dedup penalty is active: with ``dedup_penalty == 0.0``
        #: the session does not fingerprint a single page, so the historical
        #: behaviour is reproduced bit-for-bit at zero extra cost.
        self.novelty: Optional[NoveltyEstimator] = None
        if self.config.dedup_penalty > 0.0:
            self.novelty = NoveltyEstimator(corpus=self.corpus,
                                            engine=self.engine,
                                            entity=self.entity,
                                            config=self.config)
        # Pages given at construction take the same path as fetched ones.
        pages, self.current_pages = self.current_pages, []
        self.add_pages(pages)

    # -- Page management -----------------------------------------------------
    def add_pages(self, pages: Sequence[Page]) -> List[Page]:
        """Add newly retrieved pages, returning only the genuinely new ones."""
        added: List[Page] = []
        for page in pages:
            if self.candidates.add_page(page):
                self.current_pages.append(page)
                added.append(page)
        if self.novelty is not None:
            self.novelty.observe_pages(added)
        return added

    def expected_novelty(self, query: Query) -> float:
        """Expected fraction of new content among the query's posting pages.

        1.0 when dedup awareness is disabled (no index, no penalty), so
        callers can apply the discount unconditionally.
        """
        if self.novelty is None:
            return 1.0
        return self.novelty.expected_novelty(query, self.has_page)

    def expected_novelties(self, queries: Sequence[Query]) -> List[float]:
        """Batched :meth:`expected_novelty` over a candidate set.

        One selection step scores every candidate; gathering the novelty
        estimates in a single pass keeps the vectorized selection kernel
        free of per-candidate session round-trips (the estimator's
        page-novelty cache makes each additional query O(its postings)).
        """
        if self.novelty is None:
            return [1.0] * len(queries)
        return [self.novelty.expected_novelty(query, self.has_page)
                for query in queries]

    def has_page(self, page_id: str) -> bool:
        """Whether a page has already been gathered in this session."""
        return self.candidates.has_page(page_id)

    def current_page_ids(self) -> List[str]:
        """Ids of all gathered pages, in gathering order."""
        return [page.page_id for page in self.current_pages]

    def relevant_current_pages(self) -> List[Page]:
        """Current pages the (learner-visible) relevance function accepts."""
        return [page for page in self.current_pages if self.relevance(page) == 1]

    # -- Query management --------------------------------------------------------
    def record_query(self, query: Query) -> None:
        """Record a fired query into the context ``Phi``."""
        self.past_queries.append(query)
        self.fired_queries.add(query)

    def is_fired(self, query: Query) -> bool:
        """Whether ``query`` has already been fired in this session."""
        return query in self.fired_queries
