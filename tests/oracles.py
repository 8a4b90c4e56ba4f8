"""Executable references that production code must reproduce exactly.

:func:`reference_assemble` is the straightforward graph assembler: it
derives every query's words and templates and every page's words afresh,
registers vertices one by one, and finds containment pairs with per-query
and per-page Python loops.  The production
:meth:`~repro.core.utility.GraphAssembler.assemble`, which reads memoised
rows from :class:`~repro.core.utility.GraphTables`, must produce the same
vertex keys in the same order and byte-identical CSR arrays.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core.queries import Query
from repro.core.templates import TemplateIndex
from repro.core.utility import AssembledGraph
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
