"""Executable references that production code must reproduce exactly.

Each is the straightforward scalar (dict-and-loop) form of a computation
that production runs as array kernels; the equivalence tests compare the
two on random and real inputs.

:func:`template_abstracts` is Definition 1 read literally: a template
abstracts a query when every literal unit equals the query's word and every
type unit's type contains it.  Every template
:func:`~repro.core.templates.abstract_query` returns must satisfy it.
:class:`TemplateIndex` maps queries to their templates, one query at a time;
the reference graphs below take their query-template edges from it.

:func:`reference_assemble` is the straightforward graph assembler: it
derives every query's words and templates and every page's words afresh,
registers vertices one by one, and finds containment pairs with per-query
and per-page Python loops.  The production
:meth:`~repro.core.utility.GraphAssembler.assemble`, which reads the rows
of a :class:`~repro.core.utility.GraphTables` by id, must produce the same
vertex keys in the same order and byte-identical CSR arrays.
:func:`reference_containment` is its containment matrix alone, one
product of word incidences per call: the CSR arrays and index dtypes of
:meth:`~repro.core.utility.GraphTables.containment`, which gathers rows its
table derived once, must equal it for any pages and ids, in any order.
:class:`ReferenceGraphBuilder` builds a graph from keyed, weighted edges,
one vertex and one edge at a time, and reads solved utilities back by key.
:func:`reference_operators` forms the solver's operators B, Mᵀ and K of a
graph with scipy's public constructors, ``tocsc``, ``.T`` and ``@``; the
CSR arrays :class:`~repro.graph.random_walk.UtilitySolver` applies must
equal them array for array, in stored order.  :func:`reference_solve`
iterates on them with scipy's ``@``, for as many steps as the solver took;
every :class:`~repro.graph.random_walk.UtilityVector` the solver returns
must equal it byte for byte.

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

:class:`ReferenceIndex` is the dict-postings inverted index (and its
subset views) that every :class:`~repro.search.index.InvertedIndex`
statistic must equal, value and Python type.  :func:`reference_rank` ranks
its documents by the rankers' scalar per-document scores
(:func:`reference_dirichlet_score`, :func:`reference_bm25_score`); both
ranker kernels, ``rank`` and ``rank_many``, must return the same pairs.

:class:`ReferenceQueryStatistics` is the dict-and-set n-gram statistics that
every page fold once re-derived: :func:`reference_enumerate` enumerates a
page set into it and :func:`reference_prune` ranks its queries.  The
array-native :class:`~repro.core.candidates.CandidateStatistics`, the
:class:`~repro.core.queries.NgramTable` and
:func:`~repro.core.domain_phase.enumerate_domain_queries` must yield the same
pools, rankings, supports and page sets.

:func:`reference_choose` scores the context-aware selector's candidates one
at a time, in query order, through :func:`reference_evaluate`, the scalar
:class:`CollectiveUtilities` of one candidate;
:meth:`~repro.core.selection.ContextAwareSelection._choose` must return the
same candidate, and :meth:`~repro.core.context.ContextTracker.evaluate_many`
the same floats.

:class:`ReferenceNaiveBayes` is the dict-based multinomial Naive Bayes:
its ``fit`` must equal :meth:`~repro.aspects.naive_bayes.
MultinomialNaiveBayes.fit_matrix`'s arrays, its per-document
``joint_log_likelihood`` the scores of :meth:`~repro.aspects.naive_bayes.
MultinomialNaiveBayes.joint_log_likelihood`, and its ``predict`` /
``predict_proba`` the labels and posteriors of
:meth:`~repro.aspects.naive_bayes.MultinomialNaiveBayes.assess`.
:func:`reference_page_assessment` is the suite's per-paragraph page
assessment over it; :meth:`~repro.aspects.classifier.AspectClassifierSuite.
page_assessment` must return the same ``(label, probability)``.

:func:`reference_signature` is the per-shingle MinHash: one Python big-int
``(a * x + b) % p`` per shingle and hash function, no reduction of ``x``
first; :meth:`~repro.dedup.minhash.MinHasher.signatures` must return the
same components.  :class:`ReferenceNearDuplicateIndex` is the LSH index
with one bucket dict per band, whose lookups verify bucket candidates with
:func:`reference_jaccard`; :func:`~repro.dedup.minhash.band_similarity`
must answer every ``max_similarity`` and near-duplicate query the same.
:func:`reference_waste_checkpoints` replays a run page by page through
that index; :class:`~repro.dedup.waste.DuplicateWasteScorer` must read the
same waste at every budget.  :func:`reference_query_log_likelihood` is the
LM baseline's per-word ``math.log`` score, the ranking
:meth:`~repro.baselines.lm_feedback.LanguageModelFeedbackSelection.select`
must reproduce.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import (AbstractSet, Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

import math
import weakref

import numpy as np
from scipy import sparse

from repro.aspects.classifier import RELEVANT, AspectClassifierSuite
from repro.aspects.naive_bayes import MultinomialNaiveBayes
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
from repro.core.templates import Template, abstract_queries, is_type_unit
from repro.core.utility import AssembledGraph, GraphTables
from repro.corpus.corpus import Corpus
from repro.corpus.document import Page
from repro.core.context import ContextTracker
from repro.corpus.knowledge_base import TypeSystem
from repro.dedup.minhash import EMPTY_COMPONENT, MinHasher
from repro.dedup.shingles import shingle_hashes
from repro.graph.random_walk import (MODE_PRECISION, RESIDUAL_TOLERANCE,
                                     RegularizationProblem, UtilityVector)
from repro.graph.reinforcement import ReinforcementGraph
from repro.search.bm25 import BM25Ranker
from repro.search.language_model import DirichletLanguageModel


def unit_type_name(unit: str) -> Optional[str]:
    """The type name of a type unit ``"<name>"``, or ``None`` for literal units."""
    if is_type_unit(unit):
        return unit[1:-1]
    return None


def template_abstracts(template: Template, query: Query, type_system: TypeSystem) -> bool:
    """Whether ``template`` abstracts ``query`` (Definition 1)."""
    if len(template) != len(query):
        return False
    for unit, word in zip(template, query):
        name = unit_type_name(unit)
        if name is None:
            if unit != word:
                return False
        else:
            if name not in type_system.types_of(word):
                return False
    return True


class TemplateIndex:
    """Maps queries to their templates for one graph build."""

    def __init__(self, type_system: TypeSystem, max_templates_per_query: int = 16) -> None:
        self.type_system = type_system
        self.max_templates_per_query = max_templates_per_query
        self._query_templates: Dict[Query, Tuple[Template, ...]] = {}

    def add_query(self, query: Query) -> Tuple[Template, ...]:
        """Register a query, computing (and caching) its templates."""
        cached = self._query_templates.get(query)
        if cached is None:
            self.add_queries([query])
            cached = self._query_templates[query]
        return cached

    def add_queries(self, queries: Iterable[Query]) -> None:
        """Register many queries."""
        new = [query for query in dict.fromkeys(queries)
               if query not in self._query_templates]
        for query, templates in zip(new, abstract_queries(
                new, self.type_system, self.max_templates_per_query)):
            self._query_templates[query] = templates

    def templates_of(self, query: Query) -> Tuple[Template, ...]:
        """Templates of a registered query (empty tuple if unknown/untyped)."""
        return self._query_templates.get(query, ())


@dataclass
class ReferenceGraph:
    """A graph and its vertex keys, in vertex order."""

    graph: ReinforcementGraph
    page_ids: List[str]
    queries: List[Query]
    templates: List[Template]


def reference_assemble(type_system: TypeSystem, pages: Sequence[Page],
                       queries: Sequence[Query],
                       use_templates: bool = True) -> ReferenceGraph:
    """Assemble the page-query(-template) graph of distinct vertices."""
    page_ids = list(dict.fromkeys(page.page_id for page in pages))
    query_positions = {query: position for position, query in enumerate(queries)}
    assert len(page_ids) == len(pages) and len(query_positions) == len(queries)

    page_query = reference_containment(pages, queries)

    template_positions: Dict[Template, int] = {}
    qt_rows: List[int] = []
    qt_cols: List[int] = []
    if use_templates:
        template_index = TemplateIndex(type_system)
        for query_vertex, query in enumerate(queries):
            for template in template_index.add_query(query):
                qt_rows.append(query_vertex)
                qt_cols.append(template_positions.setdefault(
                    template, len(template_positions)))
    query_template = sparse.csr_matrix(
        (np.ones(len(qt_rows)), (qt_rows, qt_cols)),
        shape=(len(queries), len(template_positions)), dtype=np.float64)
    return ReferenceGraph(graph=ReinforcementGraph(page_query, query_template),
                          page_ids=page_ids, queries=list(queries),
                          templates=list(template_positions))


class ReferenceGraphBuilder:
    """Builds a :class:`ReinforcementGraph` from keyed, weighted edges.

    Vertices are numbered in order of first mention; an edge mentioned twice
    accumulates its weights, and a non-positive weight adds nothing.  The
    ``*_vector`` methods lay a keyed regularization out in vertex order and
    the ``*_value`` methods read a solved utility back by key (0.0 for a
    key that is not a vertex).
    """

    def __init__(self) -> None:
        self.pages: Dict[Hashable, int] = {}
        self.queries: Dict[Hashable, int] = {}
        self.templates: Dict[Hashable, int] = {}
        self._pq: Dict[Tuple[int, int], float] = {}
        self._qt: Dict[Tuple[int, int], float] = {}

    @staticmethod
    def _add(vertices: Dict[Hashable, int], key: Hashable) -> int:
        return vertices.setdefault(key, len(vertices))

    def add_page(self, key: Hashable) -> int:
        return self._add(self.pages, key)

    def add_query(self, key: Hashable) -> int:
        return self._add(self.queries, key)

    def add_template(self, key: Hashable) -> int:
        return self._add(self.templates, key)

    def connect_page_query(self, page: Hashable, query: Hashable,
                           weight: float = 1.0) -> None:
        if weight > 0:
            edge = (self.add_page(page), self.add_query(query))
            self._pq[edge] = self._pq.get(edge, 0.0) + float(weight)

    def connect_query_template(self, query: Hashable, template: Hashable,
                               weight: float = 1.0) -> None:
        if weight > 0:
            edge = (self.add_query(query), self.add_template(template))
            self._qt[edge] = self._qt.get(edge, 0.0) + float(weight)

    def build(self) -> ReinforcementGraph:
        def matrix(entries, shape):
            rows = [row for row, _ in entries]
            cols = [col for _, col in entries]
            return sparse.csr_matrix((list(entries.values()), (rows, cols)),
                                     shape=shape, dtype=np.float64)
        return ReinforcementGraph(
            matrix(self._pq, (len(self.pages), len(self.queries))),
            matrix(self._qt, (len(self.queries), len(self.templates))))

    @staticmethod
    def _vector(vertices: Dict[Hashable, int],
                values: Mapping[Hashable, float]) -> np.ndarray:
        vector = np.zeros(len(vertices))
        for key, value in values.items():
            if key in vertices:
                vector[vertices[key]] = float(value)
        return vector

    def page_vector(self, values: Mapping[Hashable, float]) -> np.ndarray:
        return self._vector(self.pages, values)

    def query_vector(self, values: Mapping[Hashable, float]) -> np.ndarray:
        return self._vector(self.queries, values)

    def template_vector(self, values: Mapping[Hashable, float]) -> np.ndarray:
        return self._vector(self.templates, values)

    def page_value(self, vector: UtilityVector, key: Hashable) -> float:
        index = self.pages.get(key)
        return float(vector.page_values[index]) if index is not None else 0.0

    def query_value(self, vector: UtilityVector, key: Hashable) -> float:
        index = self.queries.get(key)
        return float(vector.query_values[index]) if index is not None else 0.0

    def template_value(self, vector: UtilityVector, key: Hashable) -> float:
        index = self.templates.get(key)
        return float(vector.template_values[index]) if index is not None else 0.0


def reference_operators(graph: ReinforcementGraph, alpha: float
                        ) -> Tuple[sparse.csr_matrix, sparse.csr_matrix,
                                   sparse.csr_matrix]:
    """B, Mᵀ and K = (1 - alpha)² B D M of the query-eliminated system
    (:mod:`repro.graph.random_walk`), each a CSR matrix over the rows of
    the stacked adjacency ``[W_PQ; W_QT^T]``: B normalises each page's and
    template's row over its queries, Mᵀ each query's column over its pages
    and, separately, over its templates, and D is the two-sided mean."""
    contraction = (1.0 - float(alpha)) ** 2
    pq = graph.page_query
    tq = graph.query_template.tocsc()
    shape = (graph.num_pages + graph.num_templates, graph.num_queries)
    indptr = np.concatenate([pq.indptr, pq.indptr[-1] + tq.indptr[1:]])
    indices = np.concatenate([pq.indices, tq.indices])
    weights = np.concatenate([pq.data, tq.data]).astype(np.float64)
    rows = np.repeat(np.arange(shape[0]), np.diff(indptr))
    pt_degree = np.bincount(rows, weights, minlength=shape[0])
    page_degree, template_degree = _query_degrees(graph)
    two_sided = _two_sided(page_degree, template_degree)

    def stacked(data: np.ndarray) -> sparse.csr_matrix:
        return sparse.csr_matrix((data, indices, indptr), shape=shape)

    pt_from_q = stacked(weights / pt_degree[rows])
    q_from_pt_t = stacked(weights / np.concatenate(
        [page_degree[pq.indices], template_degree[tq.indices]]))
    operator = (stacked(pt_from_q.data * (contraction * two_sided)[indices])
                @ q_from_pt_t.T).tocsr()
    return pt_from_q, q_from_pt_t, operator


def _query_degrees(graph: ReinforcementGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Each query's summed edge weight to pages and, separately, to templates."""
    pq, tq = graph.page_query, graph.query_template.tocsc()
    return (np.bincount(pq.indices, pq.data, minlength=graph.num_queries),
            np.bincount(tq.indices, tq.data, minlength=graph.num_queries))


def _two_sided(page_degree: np.ndarray, template_degree: np.ndarray) -> np.ndarray:
    """D: 0.5 on a query with both page and template neighbours, else 1."""
    return np.where((page_degree > 0) & (template_degree > 0), 0.5, 1.0)


def reference_solve(graph: ReinforcementGraph, alpha: float, mode: str,
                    problems: Sequence[RegularizationProblem],
                    steps: int) -> List[UtilityVector]:
    """One :class:`UtilityVector` per problem, solved with scipy's ``@`` on
    :func:`reference_operators`: ``steps`` steps of ``x <- K x + b`` from
    ``x = b`` (``K^T`` for recall), then the query back-substitution and
    the full-system residual.

    With ``F`` the forward factor (B for precision, Mᵀ for recall) and
    ``G`` the back factor (M, or Bᵀ), ``b = alpha x_hat + alpha (1 - alpha)
    F q_hat``, ``q = (1 - alpha) D G x + alpha q_hat`` and the residual is
    each column's ``max |x - (1 - alpha) F q - alpha x_hat|``.  The solver
    picks ``steps`` from its contraction rate; the reference takes it as
    given.
    """
    alpha = float(alpha)
    damping = 1.0 - alpha
    pt_from_q, q_from_pt_t, operator = reference_operators(graph, alpha)
    if mode == MODE_PRECISION:
        step, forward, back = operator, pt_from_q, q_from_pt_t.T
    else:
        step, forward, back = operator.T, q_from_pt_t, pt_from_q.T

    def stacked(size: int, vectors: Sequence[Optional[np.ndarray]]) -> np.ndarray:
        values = np.zeros((size, len(vectors)))
        for column, vector in enumerate(vectors):
            if vector is not None:
                values[:, column] = vector
        return values

    alpha_pt_hat = alpha * np.concatenate([
        stacked(graph.num_pages, [p.page_regularization for p in problems]),
        stacked(graph.num_templates, [p.template_regularization for p in problems])])
    q_hat = stacked(graph.num_queries, [p.query_regularization for p in problems])
    rhs = alpha_pt_hat + (alpha * damping) * (forward @ q_hat)
    pt = rhs
    for _ in range(steps):
        pt = step @ pt + rhs
    two_sided = _two_sided(*_query_degrees(graph))[:, None]
    queries = damping * two_sided * (back @ pt) + alpha * q_hat
    residuals = np.abs(pt - damping * (forward @ queries) - alpha_pt_hat).max(
        axis=0, initial=0.0)
    num_pages = graph.num_pages
    return [UtilityVector(
        mode=mode, page_values=pt[:num_pages, j].copy(),
        query_values=queries[:, j].copy(), template_values=pt[num_pages:, j].copy(),
        graph=graph, iterations=steps,
        converged=bool(residuals[j] <= RESIDUAL_TOLERANCE),
        residual=float(residuals[j])) for j in range(len(problems))]


def reference_containment(pages: Sequence[Page],
                          queries: Sequence[Query]) -> sparse.csr_matrix:
    """The binary ``pages × queries`` containment matrix as one product of
    word incidences per call, in canonical CSR form: the per-call kernel
    :meth:`~repro.core.utility.GraphTables.containment` replaced with rows
    of contained ids derived when its table is built."""
    page_positions, query_cols = reference_containment_arrays(pages, queries)
    return sparse.csr_matrix(
        (np.ones(page_positions.size), (page_positions, query_cols)),
        shape=(len(pages), len(queries)), dtype=np.float64)


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


def assert_same_graph(actual: AssembledGraph, tables: GraphTables,
                      expected: ReferenceGraph) -> None:
    """Vertex keys in order, shapes and every CSR array (bytes and dtype)."""
    assert [tables.pages[row].page_id for row in actual.pages.tolist()] == \
        expected.page_ids
    assert tables.queries_of(actual.queries) == expected.queries
    assert [tables.templates[index] for index in actual.templates.tolist()] == \
        expected.templates
    got, want = actual.graph, expected.graph
    for name in ("page_query", "query_template"):
        assert_same_csr(getattr(got, name), getattr(want, name), name)


def assert_same_csr(actual: sparse.csr_matrix, expected: sparse.csr_matrix,
                    name: str = "matrix") -> None:
    """Same format, shape and CSR arrays (bytes and dtype)."""
    assert actual.format == expected.format == "csr", name
    assert actual.shape == expected.shape, name
    for part in ("indptr", "indices", "data"):
        a, b = getattr(actual, part), getattr(expected, part)
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
                     tables: GraphTables, utilities: EntityUtilities,
                     penalty: float) -> Optional[int]:
    """:meth:`~repro.core.selection.ContextAwareSelection._choose`, one
    candidate at a time in query order: the query vertex of the first
    candidate with the greatest ``(collective utility, individual
    utility)``."""
    tracker = selector._tracker
    assert tracker is not None
    queries = {tables.queries[query_id]: vertex
               for vertex, query_id in enumerate(utilities.candidates.tolist())}
    best_vertex: Optional[int] = None
    best_score: Optional[tuple] = None
    for query in sorted(queries):
        vertex = queries[query]
        collective = reference_evaluate(tracker, utilities, vertex)
        if penalty > 0.0:
            collective = collective.discounted(session.expected_novelty(query),
                                               penalty)
        precision = float(utilities.precision.query_values[vertex])
        recall = float(utilities.recall.query_values[vertex])
        if selector.objective == OBJECTIVE_PRECISION:
            score = (collective.collective_precision, precision)
        elif selector.objective == OBJECTIVE_RECALL:
            score = (collective.collective_recall, recall)
        else:
            individual = (max(precision, 0.0) * max(recall, 0.0)) ** 0.5
            score = (collective.balanced, individual)
        if best_score is None or score > best_score:
            best_score = score
            best_vertex = vertex
    return best_vertex


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


_UNSEEN_EPSILON = 1e-9


class ReferenceIndex:
    """The dict-postings inverted index: ``{term: {doc_id: tf}}``."""

    def __init__(self) -> None:
        self._postings: Dict[str, Dict[str, int]] = defaultdict(dict)
        self._doc_lengths: Dict[str, int] = {}
        self._collection_frequency: Counter = Counter()
        self._total_tokens = 0

    @classmethod
    def from_documents(cls, documents: Mapping[str, Sequence[str]]) -> "ReferenceIndex":
        """Index ``{doc_id: tokens}``, one document at a time in id order."""
        index = cls()
        for doc_id in sorted(documents):
            tokens = documents[doc_id]
            index._doc_lengths[doc_id] = len(tokens)
            index._total_tokens += len(tokens)
            for term, tf in Counter(tokens).items():
                index._postings[term][doc_id] = tf
                index._collection_frequency[term] += tf
        return index

    def view(self, doc_ids: Iterable[str]) -> "ReferenceIndex":
        """The index of ``doc_ids`` alone, filtered from this one."""
        ids = set(doc_ids)
        missing = [d for d in ids if d not in self._doc_lengths]
        if missing:
            raise KeyError(f"documents not in parent index: {sorted(missing)[:3]!r}")
        view = ReferenceIndex()
        for doc_id in sorted(ids):
            view._doc_lengths[doc_id] = self._doc_lengths[doc_id]
            view._total_tokens += self._doc_lengths[doc_id]
        for term, postings in self._postings.items():
            for doc_id, tf in postings.items():
                if doc_id in ids:
                    view._postings[term][doc_id] = tf
                    view._collection_frequency[term] += tf
        return view

    @property
    def num_documents(self) -> int:
        return len(self._doc_lengths)

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    @property
    def average_document_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_tokens / len(self._doc_lengths)

    def document_ids(self) -> List[str]:
        return sorted(self._doc_lengths)

    def document_length(self, doc_id: str) -> int:
        return self._doc_lengths[doc_id]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    def term_frequency(self, term: str, doc_id: str) -> int:
        return self._postings.get(term, {}).get(doc_id, 0)

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, {}))

    def collection_frequency(self, term: str) -> int:
        return self._collection_frequency.get(term, 0)

    def collection_probability(self, term: str) -> float:
        if self._total_tokens == 0:
            return 0.0
        return self._collection_frequency.get(term, 0) / self._total_tokens

    def postings(self, term: str) -> Dict[str, int]:
        return dict(self._postings.get(term, {}))

    def matching_documents(self, terms: Iterable[str],
                           require_all: bool = False) -> Set[str]:
        sets = [set(self._postings.get(term, {})) for term in terms]
        if not sets:
            return set()
        return set.intersection(*sets) if require_all else set.union(*sets)

    def vocabulary(self) -> List[str]:
        return sorted(self._postings)


def _assert_same(actual, expected) -> None:
    assert actual == expected and type(actual) is type(expected), (actual, expected)


def assert_same_index(index, reference: ReferenceIndex,
                      probe_terms: Sequence[str] = ("unseen-term", "")) -> None:
    """Every statistic of an :class:`~repro.search.index.InvertedIndex`
    equals ``reference``'s, Python type included (``probe_terms`` adds
    terms neither index holds)."""
    _assert_same(index.num_documents, reference.num_documents)
    _assert_same(index.total_tokens, reference.total_tokens)
    _assert_same(index.average_document_length, reference.average_document_length)
    _assert_same(index.document_ids(), reference.document_ids())
    _assert_same(index.vocabulary(), reference.vocabulary())
    for doc_id in reference.document_ids():
        assert doc_id in index
        _assert_same(index.document_length(doc_id), reference.document_length(doc_id))
    assert "missing-doc" not in index
    try:
        index.document_length("missing-doc")
    except KeyError:
        pass
    else:
        raise AssertionError("document_length of an unknown document must raise")
    terms = reference.vocabulary() + list(probe_terms)
    for term in terms:
        _assert_same(index.document_frequency(term), reference.document_frequency(term))
        _assert_same(index.collection_frequency(term),
                     reference.collection_frequency(term))
        _assert_same(index.collection_probability(term),
                     reference.collection_probability(term))
        postings = index.postings(term)
        _assert_same(postings, reference.postings(term))
        assert list(postings) == list(reference.postings(term))
        for doc_id in reference.document_ids() + ["missing-doc"]:
            _assert_same(index.term_frequency(term, doc_id),
                         reference.term_frequency(term, doc_id))
    for pair in zip(terms, terms[1:] + terms[:1]):
        for require_all in (False, True):
            _assert_same(index.matching_documents(pair, require_all=require_all),
                         reference.matching_documents(pair, require_all=require_all))
    _assert_same(index.matching_documents([]), set())


def reference_dirichlet_score(index: ReferenceIndex, query: Sequence[str],
                              doc_id: str, mu: float) -> float:
    """Log query likelihood of ``query`` under ``doc_id``'s smoothed model."""
    if not query:
        return float("-inf")
    total = 0.0
    for term in query:
        collection_p = index.collection_probability(term)
        if collection_p <= 0.0:
            collection_p = _UNSEEN_EPSILON
        total += math.log((index.term_frequency(term, doc_id) + mu * collection_p)
                          / (index.document_length(doc_id) + mu))
    return total


def reference_bm25_idf(index: ReferenceIndex, term: str) -> float:
    """Robertson-Sparck-Jones IDF (floored at 0)."""
    n = index.num_documents
    df = index.document_frequency(term)
    if n == 0 or df == 0:
        return 0.0
    return max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))


def reference_bm25_score(index: ReferenceIndex, query: Sequence[str], doc_id: str,
                         k1: float, b: float) -> float:
    """BM25 score of ``doc_id`` for ``query``."""
    avgdl = index.average_document_length or 1.0
    dl = index.document_length(doc_id)
    total = 0.0
    for term in query:
        tf = index.term_frequency(term, doc_id)
        if tf == 0:
            continue
        denominator = tf + k1 * (1.0 - b + b * dl / avgdl)
        total += reference_bm25_idf(index, term) * tf * (k1 + 1.0) / denominator
    return total


def reference_score(ranker, index: ReferenceIndex, query: Sequence[str],
                    doc_id: str) -> float:
    """The scalar score of ``ranker``'s model and parameters over ``index``."""
    if isinstance(ranker, DirichletLanguageModel):
        return reference_dirichlet_score(index, query, doc_id, ranker.mu)
    assert isinstance(ranker, BM25Ranker), type(ranker)
    return reference_bm25_score(index, query, doc_id, ranker.k1, ranker.b)


def reference_rank(ranker, index: ReferenceIndex, query: Sequence[str], top_k: int,
                   require_match: bool) -> List[Tuple[str, float]]:
    """``ranker.rank(query, top_k, require_match)``, scored document by
    document over ``index``, the reference twin of ``ranker.index``."""
    query = [t for t in query if t]
    if not query:
        return []
    if require_match:
        candidates = sorted(index.matching_documents(query))
    else:
        candidates = index.document_ids()
    scored = [(doc_id, reference_score(ranker, index, query, doc_id))
              for doc_id in candidates]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    if top_k > 0:
        scored = scored[:top_k]
    return scored


@dataclass
class CollectiveUtilities:
    """Collective utilities of the context plus one candidate query."""

    collective_recall: float
    collective_recall_all: float

    @property
    def collective_precision(self) -> float:
        return max(self.collective_recall, 0.0) / max(self.collective_recall_all, 1e-12)

    @property
    def balanced(self) -> float:
        precision = self.collective_precision
        recall = max(self.collective_recall, 0.0)
        return (precision * recall) ** 0.5

    def discounted(self, expected_novelty: float,
                   penalty: float) -> "CollectiveUtilities":
        redundancy = min(max(1.0 - expected_novelty, 0.0), 1.0)
        factor = 1.0 - penalty * redundancy
        return CollectiveUtilities(
            collective_recall=self.collective_recall * factor,
            collective_recall_all=self.collective_recall_all,
        )


def reference_evaluate(tracker: ContextTracker, utilities: EntityUtilities,
                       vertex: int) -> CollectiveUtilities:
    """Collective utilities of ``Phi u {q}`` (Eqs. 26-27) for the one
    candidate ``q`` at query vertex ``vertex``."""
    recall_q = float(utilities.recall.query_values[vertex])
    redundancy = float(utilities.recall_current.query_values[vertex]) * tracker.context_recall
    collective_recall = tracker.context_recall + recall_q - redundancy

    recall_all_q = float(utilities.recall_all.query_values[vertex])
    redundancy_all = (float(utilities.recall_current_all.query_values[vertex])
                      * tracker.context_recall_all)
    collective_recall_all = tracker.context_recall_all + recall_all_q - redundancy_all

    return CollectiveUtilities(
        collective_recall=min(max(collective_recall, 0.0), 1.0),
        collective_recall_all=min(max(collective_recall_all, 0.0), 1.0),
    )


class ReferenceNaiveBayes:
    """Multinomial Naive Bayes with Laplace smoothing, over dicts."""

    def __init__(self, alpha: float = 1.0) -> None:
        self.alpha = float(alpha)
        self.classes: List[Hashable] = []
        self.class_log_prior: Dict[Hashable, float] = {}
        self.feature_log_prob: Dict[Hashable, Dict[str, float]] = {}
        self.default_log_prob: Dict[Hashable, float] = {}
        self.vocabulary_size = 0

    def fit(self, documents: Sequence[Mapping[str, int]],
            labels: Sequence[Hashable]) -> "ReferenceNaiveBayes":
        class_counts: Counter = Counter(labels)
        self.classes = sorted(class_counts, key=str)
        total = len(labels)
        self.class_log_prior = {label: math.log(count / total)
                                for label, count in class_counts.items()}
        vocabulary = set()
        term_counts: Dict[Hashable, Counter] = defaultdict(Counter)
        for features, label in zip(documents, labels):
            for term, count in features.items():
                term_counts[label][term] += count
                vocabulary.add(term)
        self.vocabulary_size = max(len(vocabulary), 1)
        for label in self.classes:
            counts = term_counts[label]
            denominator = sum(counts.values()) + self.alpha * self.vocabulary_size
            self.feature_log_prob[label] = {
                term: math.log((counts[term] + self.alpha) / denominator)
                for term in counts}
            self.default_log_prob[label] = math.log(self.alpha / denominator)
        return self

    @classmethod
    def from_model(cls, model: MultinomialNaiveBayes) -> "ReferenceNaiveBayes":
        """The dict state of a fitted array model (every term explicit)."""
        reference = cls(alpha=model.alpha)
        reference.classes = model.classes
        reference.vocabulary_size = model._vocabulary_size
        table = model._log_prob_table
        for c, label in enumerate(reference.classes):
            reference.class_log_prior[label] = float(model._prior_array[c])
            reference.feature_log_prob[label] = {
                term: float(table[c, j]) for j, term in enumerate(model._terms)}
            reference.default_log_prob[label] = float(table[c, -1])
        return reference

    def joint_log_likelihood(self, features: Mapping[str, int]) -> Dict[Hashable, float]:
        scores: Dict[Hashable, float] = {}
        for label in self.classes:
            log_prob = self.class_log_prior[label]
            per_term = self.feature_log_prob[label]
            default = self.default_log_prob[label]
            for term, count in features.items():
                log_prob += count * per_term.get(term, default)
            scores[label] = log_prob
        return scores

    def predict(self, features: Mapping[str, int]) -> Hashable:
        scores = self.joint_log_likelihood(features)
        return max(sorted(scores, key=str), key=lambda label: scores[label])

    def predict_proba(self, features: Mapping[str, int]) -> Dict[Hashable, float]:
        scores = self.joint_log_likelihood(features)
        max_score = max(scores.values())
        exp_scores = {label: math.exp(score - max_score)
                      for label, score in scores.items()}
        total = 0.0
        for value in exp_scores.values():
            total += value
        return {label: value / total for label, value in exp_scores.items()}


_REFERENCE_MODELS: "weakref.WeakKeyDictionary[MultinomialNaiveBayes, ReferenceNaiveBayes]" = \
    weakref.WeakKeyDictionary()


def reference_page_assessment(suite: AspectClassifierSuite, page: Page,
                              aspect: str) -> Tuple[int, float]:
    """``suite.page_assessment(page, aspect)``, paragraph by paragraph over
    the dict form of the suite's model: any relevant paragraph makes the
    page relevant, and its probability is the greatest paragraph
    posterior of the relevant class."""
    model = suite._models[aspect]
    reference = _REFERENCE_MODELS.get(model)
    if reference is None:
        reference = _REFERENCE_MODELS[model] = ReferenceNaiveBayes.from_model(model)
    features = [suite._extractor.transform(p.tokens) for p in page.paragraphs]
    label = int(any(reference.predict(f) == RELEVANT for f in features))
    probability = max((reference.predict_proba(f).get(RELEVANT, 0.0)
                       for f in features), default=0.0)
    return label, probability


# -- Dedup: MinHash, the LSH index and the waste replay -----------------------

_MINHASH_PRIME = (1 << 61) - 1

Signature = Tuple[int, ...]


def reference_signature(hasher: MinHasher, shingles: AbstractSet[int]) -> Signature:
    """The MinHash signature of one shingle set, shingle by shingle."""
    if not shingles:
        return (EMPTY_COMPONENT,) * hasher.num_hashes
    return tuple(min((a * x + b) % _MINHASH_PRIME for x in shingles)
                 for a, b in hasher.coefficients.tolist())


def reference_jaccard(left: Sequence[int], right: Sequence[int]) -> float:
    """Estimated Jaccard similarity: the fraction of agreeing components."""
    if len(left) != len(right):
        raise ValueError("signatures must have the same length")
    if not len(left):
        return 0.0
    return sum(1 for a, b in zip(left, right) if a == b) / len(left)


class ReferenceNearDuplicateIndex:
    """Incremental LSH index: one bucket per (band, band rows), candidates
    verified against the full signature.  Two signatures share a bucket when
    some band agrees on all its rows; buckets are sets and similarity comes
    from signatures, so answers do not depend on insertion order."""

    def __init__(self, num_bands: int = 32, similarity_threshold: float = 0.5) -> None:
        if num_bands < 1:
            raise ValueError("num_bands must be >= 1")
        if not 0.0 < similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in (0, 1]")
        self.num_bands = num_bands
        self.similarity_threshold = similarity_threshold
        self._signatures: Dict[str, Signature] = {}
        self._buckets: Dict[Tuple[int, Signature], Set[str]] = {}
        #: Bumped on every insertion.
        self.version = 0

    def __len__(self) -> int:
        return len(self._signatures)

    def __contains__(self, page_id: str) -> bool:
        return page_id in self._signatures

    def _bands(self, signature: Sequence[int]) -> List[Tuple[int, Signature]]:
        signature = tuple(int(v) for v in signature)
        if len(signature) % self.num_bands:
            raise ValueError(
                f"signature length {len(signature)} is not divisible by "
                f"{self.num_bands} bands")
        rows = len(signature) // self.num_bands
        return [(band, signature[band * rows:(band + 1) * rows])
                for band in range(self.num_bands)]

    def add(self, page_id: str, signature: Sequence[int]) -> bool:
        """Index one page's signature; returns False if already present."""
        if page_id in self._signatures:
            return False
        keys = self._bands(signature)
        self._signatures[page_id] = tuple(int(v) for v in signature)
        for key in keys:
            self._buckets.setdefault(key, set()).add(page_id)
        self.version += 1
        return True

    def candidates(self, signature: Sequence[int]) -> Set[str]:
        """Pages sharing at least one LSH bucket with ``signature``."""
        found: Set[str] = set()
        for key in self._bands(signature):
            found |= self._buckets.get(key, set())
        return found

    def max_similarity(self, signature: Sequence[int]) -> float:
        """Highest estimated Jaccard against any bucket candidate (0.0 if none)."""
        signature = tuple(int(v) for v in signature)
        return max((reference_jaccard(signature, self._signatures[page_id])
                    for page_id in self.candidates(signature)), default=0.0)

    def near_duplicates(self, signature: Sequence[int]) -> List[str]:
        """Indexed pages whose estimated similarity meets the threshold."""
        signature = tuple(int(v) for v in signature)
        return sorted(
            page_id for page_id in self.candidates(signature)
            if reference_jaccard(signature, self._signatures[page_id])
            >= self.similarity_threshold)

    def is_near_duplicate(self, signature: Sequence[int]) -> bool:
        """Whether any indexed page meets the similarity threshold."""
        return bool(self.near_duplicates(signature))


def reference_waste_checkpoints(corpus: Corpus, config: L2QConfig,
                                result) -> List[Tuple[int, int]]:
    """Cumulative ``(fetched, wasted)`` after the seed and each iteration.

    Each fetch in stream order: a page already indexed is waste; otherwise
    it is waste when the index holds a near-duplicate, and it joins the
    index either way.  Signatures come from :func:`reference_signature`.
    """
    hasher = MinHasher(num_hashes=config.dedup_num_hashes,
                       seed=config.dedup_hash_seed)
    index = ReferenceNearDuplicateIndex(
        num_bands=config.dedup_bands,
        similarity_threshold=config.dedup_similarity_threshold)
    fetched = wasted = 0
    checkpoints: List[Tuple[int, int]] = []
    for page_ids in [result.seed_page_ids] + [
            record.result_page_ids for record in result.iterations]:
        for page_id in page_ids:
            fetched += 1
            if page_id in index:
                wasted += 1
                continue
            signature = reference_signature(hasher, shingle_hashes(
                corpus.get_page(page_id).tokens, config.dedup_shingle_size))
            if index.is_near_duplicate(signature):
                wasted += 1
            index.add(page_id, signature)
        checkpoints.append((fetched, wasted))
    return checkpoints


def reference_waste_by_budget(corpus: Corpus, config: L2QConfig, result,
                              budgets: Sequence[int]) -> Dict[int, float]:
    """Waste at each budget read off :func:`reference_waste_checkpoints`."""
    checkpoints = reference_waste_checkpoints(corpus, config, result)
    out: Dict[int, float] = {}
    for budget in budgets:
        fetched, wasted = checkpoints[min(budget, len(checkpoints) - 1)]
        out[budget] = wasted / fetched if fetched else 0.0
    return out


# -- LM feedback --------------------------------------------------------------

def reference_query_log_likelihood(query: Query, model: Mapping[str, float],
                                   epsilon: float) -> float:
    """Log-likelihood of a query under a feedback model, one log per word."""
    return sum(math.log(model.get(word, epsilon)) for word in query)
