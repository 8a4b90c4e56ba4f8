"""Graph assembly and utility regularization for L2Q inference.

This module turns a working set of pages plus a candidate query pool into a
:class:`~repro.graph.reinforcement.ReinforcementGraph` (optionally extended
with templates) and provides the utility-regularization vectors of Sect. III
(Eqs. 11-12): every relevant page is guided towards precision 1, and the
relevant pages share a total recall mass of 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.aspects.relevance import RelevanceFunction
from repro.core.config import L2QConfig
from repro.core.queries import Query
from repro.core.templates import Template, TemplateIndex
from repro.corpus.document import Page
from repro.corpus.knowledge_base import TypeSystem
from repro.graph.reinforcement import (
    ReinforcementGraph,
    ReinforcementGraphBuilder,
    VertexIndex,
    _entries_to_csr,
)
from repro.graph.random_walk import UtilitySolver


@dataclass
class AssembledGraph:
    """A built reinforcement graph together with its bookkeeping."""

    graph: ReinforcementGraph
    pages: List[Page]
    queries: List[Query]
    templates: List[Template]
    template_index: Optional[TemplateIndex]

    def solver(self, config: L2QConfig) -> UtilitySolver:
        """Create a solver with the configured restart probability alpha."""
        return UtilitySolver(self.graph, alpha=config.alpha)


class GraphAssembler:
    """Builds reinforcement graphs from pages, candidate queries and templates."""

    def __init__(self, type_system: TypeSystem, config: Optional[L2QConfig] = None) -> None:
        self.type_system = type_system
        self.config = config if config is not None else L2QConfig()

    def assemble(self, pages: Sequence[Page], queries: Sequence[Query],
                 use_templates: bool = True,
                 edge_weights: Optional[Mapping[Tuple[str, Query], float]] = None) -> AssembledGraph:
        """Build the graph.

        Parameters
        ----------
        pages:
            The page vertices (e.g. current result pages ``P_E`` or domain
            pages ``P_D``).
        queries:
            The candidate query vertices.  Edges connect a query to every
            page that contains all of its words ("page p can be retrieved by
            query q"); queries with no containing page still become vertices
            (they may be connected through templates).
        use_templates:
            Whether to add the template layer (Sect. IV).
        edge_weights:
            Optional override of page-query edge weights keyed by
            ``(page_id, query)``; defaults to binary containment weights.
        """
        # Same vertex/edge semantics as ReinforcementGraphBuilder (vertices
        # registered up front in input order, positive weights accumulated),
        # constructed directly: the builder's per-edge method calls are a
        # measurable fraction of each selection step.
        pages_index = VertexIndex()
        pages_index.extend([page.page_id for page in pages])
        queries_index = VertexIndex()
        query_positions = queries_index.extend(queries)

        page_positions, query_cols = _containment_arrays(pages, queries)
        distinct = (len(pages_index) == len(pages)
                    and len(queries_index) == len(queries))
        if edge_weights is None and distinct:
            # Hot path: binary weights over distinct vertices mean every
            # containment pair is one unit entry — straight to CSR, no
            # accumulation dict (the COO constructor canonicalises).
            page_query = sparse.csr_matrix(
                (np.ones(page_positions.size), (page_positions, query_cols)),
                shape=(len(pages_index), len(queries_index)), dtype=np.float64)
        else:
            # Duplicated vertices (or explicit weights) accumulate edge
            # weights in page-major pair order, as the graph builder would.
            pq_entries: Dict[Tuple[int, int], float] = {}
            for page_position, query_position in sorted(
                    zip(page_positions.tolist(), query_cols.tolist())):
                page = pages[page_position]
                query = queries[query_position]
                weight = 1.0
                if edge_weights is not None:
                    weight = float(edge_weights.get((page.page_id, query), 1.0))
                if weight <= 0:
                    continue
                key = (pages_index.add(page.page_id), query_positions[query_position])
                pq_entries[key] = pq_entries.get(key, 0.0) + weight
            page_query = _entries_to_csr(
                pq_entries, (len(pages_index), len(queries_index)))

        templates_index = VertexIndex()
        template_index: Optional[TemplateIndex] = None
        qt_rows: List[int] = []
        qt_cols: List[int] = []
        if use_templates:
            template_index = TemplateIndex(self.type_system)
            for query, query_vertex in zip(queries, query_positions):
                for template in template_index.add_query(query):
                    qt_rows.append(query_vertex)
                    qt_cols.append(templates_index.add(template))
        # Unit weights again: duplicate (query, template) pairs — possible
        # only with duplicated queries — sum to exact integers either way.
        query_template = sparse.csr_matrix(
            (np.ones(len(qt_rows)), (qt_rows, qt_cols)),
            shape=(len(queries_index), len(templates_index)), dtype=np.float64)

        graph = ReinforcementGraph(pages_index, queries_index, templates_index,
                                   page_query, query_template)
        return AssembledGraph(
            graph=graph,
            pages=list(pages),
            queries=list(queries),
            templates=list(graph.templates.keys()),
            template_index=template_index,
        )


def _containment_arrays(pages: Sequence[Page],
                        queries: Sequence[Query]) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(page_position, query_position)`` pairs where the page contains
    every word of the query, via one sparse matmul.

    Equivalent to testing
    :func:`~repro.core.queries.query_contained_in_page` for every pair, but
    the O(pages × queries) loop collapses into counting, per pair, how many
    *distinct* query words occur in the page — ``(pages × words) @ (words ×
    queries)`` over binary incidence matrices — and keeping the pairs whose
    count equals the query's word count.  Returns parallel position arrays
    in no particular order; each pair occurs exactly once.
    """
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
            # An empty query is (vacuously) contained in every page.
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
        # Set intersection runs in C; incidence order is irrelevant because
        # the COO->CSR conversion canonicalises (entries are unique).
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


def _containment_pairs(pages: Sequence[Page],
                       queries: Sequence[Query]) -> List[Tuple[int, int]]:
    """:func:`_containment_arrays` as a page-major-sorted list of pairs."""
    pair_pages, pair_queries = _containment_arrays(pages, queries)
    return sorted(zip(pair_pages.tolist(), pair_queries.tolist()))


# ---------------------------------------------------------------------------
# Utility regularization (Eqs. 11-12)
# ---------------------------------------------------------------------------

def precision_page_regularization(pages: Sequence[Page],
                                  relevance: RelevanceFunction) -> Dict[str, float]:
    """``P_hat(p) = Y(p)``: every relevant page is guided towards precision 1."""
    return {page.page_id: float(relevance(page)) for page in pages}


def recall_page_regularization(pages: Sequence[Page],
                               relevance: RelevanceFunction) -> Dict[str, float]:
    """``R_hat(p) = Y(p) / sum_p' Y(p')``: relevant pages share recall mass 1."""
    labels = {page.page_id: float(relevance(page)) for page in pages}
    total = sum(labels.values())
    if total <= 0:
        return {page_id: 0.0 for page_id in labels}
    return {page_id: value / total for page_id, value in labels.items()}


def template_regularization(template_utilities: Mapping[Template, float],
                            templates: Iterable[Template],
                            adaptation_lambda: float,
                            normalize: bool = True) -> Dict[Template, float]:
    """``U_hat_E(t) = lambda * U_D(t)`` for templates learnt in the domain phase.

    Only templates that appear both in the domain model and in the entity
    graph receive regularization (``t in T_E intersect T_D``, Eqs. 21-22).

    ``normalize`` rescales the domain utilities by their maximum before
    applying ``lambda``.  The paper's domain graph and ours differ in size by
    orders of magnitude, and recall-mode utilities scale inversely with graph
    size; normalising makes the adaptation strength ``lambda`` comparable
    across modes and corpus scales (the ranking of templates is unchanged).
    """
    values = {t: float(v) for t, v in template_utilities.items() if v > 0}
    if not values:
        return {}
    scale = max(values.values()) if normalize else 1.0
    if scale <= 0:
        return {}
    regularization: Dict[Template, float] = {}
    for template in templates:
        domain_value = values.get(template)
        if domain_value is not None:
            regularization[template] = adaptation_lambda * domain_value / scale
    return regularization
