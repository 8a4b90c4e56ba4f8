"""Executable references that production code must reproduce exactly.

:func:`reference_assemble` is the straightforward graph assembler: it
derives every query's words and templates and every page's words afresh,
registers vertices one by one, and finds containment pairs with per-query
and per-page Python loops.  The production
:meth:`~repro.core.utility.GraphAssembler.assemble`, which reads memoised
rows from :class:`~repro.core.utility.GraphTables`, must produce the same
vertex keys in the same order and byte-identical CSR arrays.

:func:`reference_hr_select` and :func:`reference_aq_select` score every
candidate of the HR and AQ baselines with per-candidate × per-page loops
over :meth:`~repro.corpus.document.Page.contains_all` and rank the whole
pool; :func:`reference_hr_statistics` derives the HR domain statistics of
one aspect from scratch.  The production selectors and statistics must
return the same query and the same floats.

:func:`reference_ideal_select` is the ideal selector's greedy loop: it
enumerates the entity's candidates afresh, fires each one at the engine
through the per-query :meth:`~repro.search.engine.SearchEngine.search`, and
scores the union with the gathered pages using Python sets.
:meth:`~repro.baselines.oracle.IdealSelection.select` must return the same
query.

:func:`reference_rank` is the rankers' scalar ranking path: it scores each
candidate document with the scalar ``score`` and sorts the pairs.  Both
ranker kernels, ``rank`` and ``rank_many``, must return the same pairs.

:class:`ReferenceQueryStatistics` is the dict-and-set n-gram statistics that
every page fold once re-derived: :func:`reference_enumerate` enumerates a
page set into it and :func:`reference_prune` ranks its queries.  The
array-native :class:`~repro.core.candidates.CandidateStatistics`, the
:class:`~repro.core.queries.NgramTable` and
:func:`~repro.core.domain_phase.enumerate_domain_queries` must yield the same
pools, rankings, supports and page sets.

:func:`reference_choose` scores the context-aware selector's candidates one
at a time; :meth:`~repro.core.selection.ContextAwareSelection._choose` must
return the same query.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.aspects.relevance import RelevanceFunction
from repro.baselines.harvest_rate import HarvestRateStatistics
from repro.core.config import L2QConfig
from repro.core.entity_phase import EntityUtilities
from repro.core.queries import Query, QueryEnumerator
from repro.core.selection import (
    OBJECTIVE_PRECISION,
    OBJECTIVE_RECALL,
    ContextAwareSelection,
    first_unfired,
)
from repro.core.session import HarvestSession
from repro.core.templates import Template, TemplateIndex
from repro.core.utility import AssembledGraph
from repro.corpus.corpus import Corpus
from repro.corpus.document import Page
from repro.corpus.knowledge_base import TypeSystem
from repro.graph.reinforcement import ReinforcementGraph, VertexIndex


def reference_assemble(type_system: TypeSystem, pages: Sequence[Page],
                       queries: Sequence[Query],
                       use_templates: bool = True) -> AssembledGraph:
    """Assemble the page-query(-template) graph of distinct vertices."""
    pages_index = VertexIndex()
    pages_index.extend([page.page_id for page in pages])
    queries_index = VertexIndex()
    query_positions = queries_index.extend(queries)

    page_positions, query_cols = reference_containment_arrays(pages, queries)
    page_query = sparse.csr_matrix(
        (np.ones(page_positions.size), (page_positions, query_cols)),
        shape=(len(pages_index), len(queries_index)), dtype=np.float64)

    templates_index = VertexIndex()
    qt_rows: List[int] = []
    qt_cols: List[int] = []
    if use_templates:
        template_index = TemplateIndex(type_system)
        for query, query_vertex in zip(queries, query_positions):
            for template in template_index.add_query(query):
                qt_rows.append(query_vertex)
                qt_cols.append(templates_index.add(template))
    query_template = sparse.csr_matrix(
        (np.ones(len(qt_rows)), (qt_rows, qt_cols)),
        shape=(len(queries_index), len(templates_index)), dtype=np.float64)

    graph = ReinforcementGraph(pages_index, queries_index, templates_index,
                               page_query, query_template)
    return AssembledGraph(graph=graph, pages=list(pages), queries=list(queries),
                          templates=list(graph.templates.keys()))


def reference_containment_arrays(pages: Sequence[Page],
                                 queries: Sequence[Query]
                                 ) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(page_position, query_position)`` pairs where the page contains
    every word of the query (an empty query is contained in every page)."""
    empty = np.zeros(0, dtype=np.int64)
    if not pages or not queries:
        return empty, empty
    word_positions: Dict[str, int] = {}
    query_rows: List[int] = []
    query_cols: List[int] = []
    vacuous: List[int] = []
    for query_position, query in enumerate(queries):
        words = set(query)
        if not words:
            vacuous.append(query_position)
            continue
        for word in words:
            position = word_positions.setdefault(word, len(word_positions))
            query_rows.append(query_position)
            query_cols.append(position)

    page_rows: List[int] = []
    page_cols: List[int] = []
    query_word_set = frozenset(word_positions)
    position_of = word_positions.__getitem__
    for page_position, page in enumerate(pages):
        hits = page.token_set & query_word_set
        if hits:
            page_cols.extend(map(position_of, hits))
            page_rows.extend([page_position] * len(hits))

    pair_pages, pair_queries = empty, empty
    if word_positions:
        shape_words = len(word_positions)
        query_words = sparse.csr_matrix(
            (np.ones(len(query_rows)), (query_rows, query_cols)),
            shape=(len(queries), shape_words))
        page_words = sparse.csr_matrix(
            (np.ones(len(page_rows)), (page_rows, page_cols)),
            shape=(len(pages), shape_words))
        counts = (page_words @ query_words.T).tocoo()
        required = np.bincount(np.asarray(query_rows, dtype=np.int64),
                               minlength=len(queries))
        contained = counts.data == required[counts.col]
        pair_pages = counts.row[contained].astype(np.int64)
        pair_queries = counts.col[contained].astype(np.int64)
    if vacuous:
        every_page = np.arange(len(pages), dtype=np.int64)
        pair_pages = np.concatenate(
            [pair_pages] + [every_page for _ in vacuous])
        pair_queries = np.concatenate(
            [pair_queries] + [np.full(len(pages), position, dtype=np.int64)
                              for position in vacuous])
    return pair_pages, pair_queries


def assert_same_graph(actual: AssembledGraph, expected: AssembledGraph) -> None:
    """Vertex keys in order, shapes and every CSR array (bytes and dtype)."""
    got, want = actual.graph, expected.graph
    assert got.pages.keys() == want.pages.keys()
    assert got.queries.keys() == want.queries.keys()
    assert got.templates.keys() == want.templates.keys()
    assert actual.templates == expected.templates
    assert actual.queries == expected.queries
    assert [p.page_id for p in actual.pages] == [p.page_id for p in expected.pages]
    for name in ("page_query", "query_template"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.shape == theirs.shape, name
        for part in ("indptr", "indices", "data"):
            a, b = getattr(mine, part), getattr(theirs, part)
            assert a.dtype == b.dtype, (name, part, a.dtype, b.dtype)
            assert a.tobytes() == b.tobytes(), (name, part)


def reference_hr_select(domain_statistics: HarvestRateStatistics,
                        session: HarvestSession) -> Optional[Query]:
    """:meth:`~repro.baselines.harvest_rate.HarvestRateSelection.select`."""
    if not session.current_pages:
        return None
    candidates = set(session.candidates.sorted_queries())
    # HR also exploits domain data: add domain queries it has statistics for.
    excluded_words = session.entity.excluded_words()
    for query in domain_statistics.query_harvest_rate:
        if not any(word in excluded_words for word in query):
            candidates.add(query)
    if not candidates:
        return None

    relevant_ids = {p.page_id for p in session.relevant_current_pages()}
    scores: Dict[Query, float] = {}
    for query in candidates:
        containing = [p for p in session.current_pages if p.contains_all(query)]
        current_rate: Optional[float] = None
        if containing:
            current_rate = sum(1 for p in containing
                               if p.page_id in relevant_ids) / len(containing)
        domain_rate = domain_statistics.domain_score(query)
        components = [v for v in (current_rate, domain_rate) if v is not None]
        scores[query] = sum(components) / len(components) if components else 0.0

    ranked = sorted(candidates, key=lambda q: (-scores[q], q))
    return first_unfired(ranked, session)


def reference_aq_select(session: HarvestSession) -> Optional[Query]:
    """:meth:`~repro.baselines.adaptive_querying.AdaptiveQueryingSelection.select`."""
    if not session.current_pages:
        return None
    relevant_pages = session.relevant_current_pages()
    scoring_pages = relevant_pages if relevant_pages else session.current_pages

    candidates = session.candidates.sorted_queries()
    if not candidates:
        return None

    covered_by_past: Set[str] = set()
    for query in session.past_queries:
        for page in session.current_pages:
            if page.contains_all(query):
                covered_by_past.add(page.page_id)
    scores: Dict[Query, float] = {}
    for query in candidates:
        containing = [p for p in session.current_pages if p.contains_all(query)]
        support = sum(1 for p in scoring_pages if p.contains_all(query))
        if containing:
            already = sum(1 for p in containing if p.page_id in covered_by_past)
            novelty = 1.0 - already / len(containing)
        else:
            novelty = 1.0
        scores[query] = support * (0.5 + 0.5 * novelty)

    ranked = sorted(candidates, key=lambda q: (-scores[q], q))
    return first_unfired(ranked, session)


def reference_hr_statistics(domain_corpus: Corpus, relevance: RelevanceFunction,
                            config: L2QConfig
                            ) -> Tuple[Dict[Query, float], Dict[Template, float],
                                       Dict[Query, tuple]]:
    """The query rates, template rates and query templates of
    :meth:`~repro.baselines.harvest_rate.HarvestRateStatistics.from_corpus`,
    enumerated, pruned and abstracted for the one aspect."""
    pages = list(domain_corpus.iter_pages())
    query_rates: Dict[Query, float] = {}
    query_templates: Dict[Query, tuple] = {}
    if not pages:
        return query_rates, {}, query_templates
    enumerator = QueryEnumerator(max_length=config.max_query_length,
                                 min_word_length=config.min_query_word_length)
    query_stats = reference_enumerate(enumerator, pages)
    queries = reference_prune(query_stats,
                              min_page_frequency=config.domain_min_query_pages,
                              max_queries=config.max_domain_queries)
    relevant_ids = {p.page_id for p in pages if relevance(p) == 1}
    for query in queries:
        containing = query_stats.pages.get(query, set())
        if containing:
            query_rates[query] = len(containing & relevant_ids) / len(containing)

    template_index = TemplateIndex(domain_corpus.type_system)
    template_index.add_queries(query_rates)
    template_totals: Dict[Template, List[float]] = {}
    for query, rate in query_rates.items():
        templates = template_index.templates_of(query)
        query_templates[query] = templates
        for template in templates:
            template_totals.setdefault(template, []).append(rate)
    template_rates = {template: sum(values) / len(values)
                      for template, values in template_totals.items()}
    return query_rates, template_rates, query_templates


def reference_ideal_select(ground_truth: RelevanceFunction, session: HarvestSession,
                           max_candidates: int = 3000) -> Optional[Query]:
    """:meth:`~repro.baselines.oracle.IdealSelection.select`."""
    universe = session.corpus.pages_of(session.entity.entity_id)
    relevant_ids = {p.page_id for p in universe if ground_truth(p) == 1}
    enumerator = QueryEnumerator(
        max_length=session.config.max_query_length,
        min_word_length=session.config.min_query_word_length,
        exclude_words=session.entity.excluded_words(),
    )
    candidates = reference_ideal_candidates(reference_enumerate(enumerator, universe),
                                            max_candidates)
    if not relevant_ids:
        return None

    gathered = set(session.current_page_ids())
    best_query: Optional[Query] = None
    best_score = float("-inf")
    for query in candidates:
        if session.is_fired(query):
            continue
        retrieved = [r.page_id for r in session.engine.search(
            session.entity.entity_id, list(query), record_fetch=False)]
        if not retrieved:
            continue
        union = gathered | set(retrieved)
        relevant_covered = len(union & relevant_ids)
        precision = relevant_covered / len(union) if union else 0.0
        coverage = relevant_covered / len(relevant_ids)
        score = precision * coverage
        if score > best_score:
            best_score = score
            best_query = query
    return best_query


def reference_ideal_candidates(statistics: "ReferenceQueryStatistics",
                               max_candidates: int) -> List[Query]:
    """The ideal oracle's pool: by descending page frequency, ties by query."""
    ranked = sorted(statistics.queries(),
                    key=lambda q: (-statistics.page_frequency(q), q))
    return ranked[:max_candidates]


def reference_choose(selector: ContextAwareSelection, session: HarvestSession,
                     utilities: EntityUtilities, candidates: List[Query],
                     penalty: float) -> Optional[Query]:
    """:meth:`~repro.core.selection.ContextAwareSelection._choose`, one
    candidate at a time: the first candidate with the greatest
    ``(collective utility, individual utility)``."""
    tracker = selector._tracker
    assert tracker is not None
    best_query: Optional[Query] = None
    best_score: Optional[tuple] = None
    for query in candidates:
        collective = tracker.evaluate(query, utilities)
        if penalty > 0.0:
            collective = collective.discounted(session.expected_novelty(query),
                                               penalty)
        if selector.objective == OBJECTIVE_PRECISION:
            score = (collective.collective_precision, utilities.precision_of(query))
        elif selector.objective == OBJECTIVE_RECALL:
            score = (collective.collective_recall, utilities.recall_of(query))
        else:
            individual = (max(utilities.precision_of(query), 0.0)
                          * max(utilities.recall_of(query), 0.0)) ** 0.5
            score = (collective.balanced, individual)
        if best_score is None or score > best_score:
            best_score = score
            best_query = query
    return best_query


@dataclass
class ReferenceQueryStatistics:
    """Occurrence statistics for a set of enumerated queries, as dicts and sets."""

    occurrences: Counter = field(default_factory=Counter)
    pages: Dict[Query, Set[str]] = field(default_factory=lambda: defaultdict(set))
    entities: Dict[Query, Set[str]] = field(default_factory=lambda: defaultdict(set))

    def record(self, query: Query, page_id: str, entity_id: str, count: int = 1) -> None:
        """Record ``count`` occurrences of ``query`` on a page of an entity."""
        self.occurrences[query] += count
        self.pages[query].add(page_id)
        self.entities[query].add(entity_id)

    def queries(self) -> List[Query]:
        """All recorded queries, in first-occurrence order."""
        return list(self.occurrences)

    def page_frequency(self, query: Query) -> int:
        """Number of distinct pages containing ``query``."""
        return len(self.pages.get(query, ()))

    def entity_support(self, query: Query) -> int:
        """Number of distinct entities whose pages contain ``query``."""
        return len(self.entities.get(query, ()))


def reference_enumerate(enumerator: QueryEnumerator,
                        pages: Sequence[Page]) -> ReferenceQueryStatistics:
    """Enumerate every page of ``pages`` and record each of its n-grams."""
    statistics = ReferenceQueryStatistics()
    for page in pages:
        for query, count in enumerator.enumerate_from_page(page).items():
            statistics.record(query, page.page_id, page.entity_id, count)
    return statistics


def reference_prune(statistics: ReferenceQueryStatistics, min_page_frequency: int = 1,
                    max_queries: Optional[int] = None) -> List[Query]:
    """Keep frequent queries, most frequent first (ties broken lexicographically)."""
    if max_queries is not None and max_queries < 0:
        raise ValueError("max_queries must be non-negative")
    kept = [q for q in statistics.queries()
            if statistics.page_frequency(q) >= min_page_frequency]
    kept.sort(key=lambda q: (-statistics.occurrences[q], q))
    if max_queries is not None and len(kept) > max_queries:
        kept = kept[:max_queries]
    return kept


def reference_rank(ranker, query: Sequence[str], top_k: int,
                   require_match: bool) -> List[Tuple[str, float]]:
    """``ranker.rank(query, top_k, require_match)`` over the scalar ``score``."""
    query = [t for t in query if t]
    if not query:
        return []
    if require_match:
        candidates = sorted(ranker.index.matching_documents(query))
    else:
        candidates = ranker.index.document_ids()
    scored = [(doc_id, ranker.score(query, doc_id)) for doc_id in candidates]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    if top_k > 0:
        scored = scored[:top_k]
    return scored
