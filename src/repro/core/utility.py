"""Graph assembly and utility regularization for L2Q inference.

This module turns a working set of pages plus a candidate query pool into a
:class:`~repro.graph.reinforcement.ReinforcementGraph` (optionally extended
with templates) and provides the utility-regularization vectors of Sect. III
(Eqs. 11-12): every relevant page is guided towards precision 1, and the
relevant pages share a total recall mass of 1.

Assembly reads every vertex's edges from a :class:`GraphTables` memo.  A
query's distinct words and templates and a page's words are pure functions
of the query or the page, so a harvest session keeps one table and each
selection derives only the rows of the candidates and pages it has not met
before.  The page-query edges are then one sparse matmul over the gathered
word rows, and the query-template edges a gather of template rows; vertex
order and every CSR array are exactly those of building the graph
vertex by vertex.  The HR and AQ baselines read their candidates'
containment from the same kernel (:meth:`GraphTables.containment`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.aspects.relevance import RelevanceFunction
from repro.core.config import L2QConfig
from repro.core.queries import Query
from repro.core.templates import Template, abstract_queries
from repro.corpus.document import Page
from repro.corpus.knowledge_base import TypeSystem
from repro.graph.reinforcement import ReinforcementGraph, VertexIndex
from repro.graph.random_walk import UtilitySolver

_NO_ROW = -1


@dataclass
class AssembledGraph:
    """A built reinforcement graph together with its bookkeeping."""

    graph: ReinforcementGraph
    pages: List[Page]
    queries: List[Query]
    templates: List[Template]

    def solver(self, config: L2QConfig) -> UtilitySolver:
        """Create a solver with the configured restart probability alpha."""
        return UtilitySolver(self.graph, alpha=config.alpha)


class _RaggedRows:
    """Integer rows appended over time and gathered by row number."""

    def __init__(self) -> None:
        self._values = np.zeros(64, dtype=np.int64)
        self._starts = np.zeros(16, dtype=np.int64)
        self._lengths = np.zeros(16, dtype=np.int64)
        self._num_values = 0
        self._num_rows = 0

    def __len__(self) -> int:
        return self._num_rows

    def extend(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Append rows given as their concatenated values and lengths; they
        get the next row numbers in order."""
        first_row, first_value = self._num_rows, self._num_values
        self._num_rows += lengths.size
        self._num_values += values.size
        self._starts = _with_capacity(self._starts, self._num_rows)
        self._lengths = _with_capacity(self._lengths, self._num_rows)
        self._values = _with_capacity(self._values, self._num_values)
        self._starts[first_row:self._num_rows] = first_value + np.cumsum(lengths) - lengths
        self._lengths[first_row:self._num_rows] = lengths
        self._values[first_value:self._num_values] = values

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The values of ``rows`` concatenated in order, and each row's length."""
        lengths = self._lengths[rows]
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if ends.size else 0
        shift = np.repeat(self._starts[rows] - (ends - lengths), lengths)
        return self._values[np.arange(total) + shift], lengths


def _with_capacity(array: np.ndarray, size: int) -> np.ndarray:
    if size <= array.size:
        return array
    grown = np.zeros(max(size, 2 * array.size), dtype=array.dtype)
    grown[:array.size] = array
    return grown


def _numbered(keys: Sequence, ids: Dict, numbered: Optional[List] = None) -> np.ndarray:
    """The id of every key in ``ids``; a key without one gets the next free
    id (``len(ids)``) and, if given, is appended to ``numbered``."""
    new = [key for key in dict.fromkeys(keys) if key not in ids]
    ids.update(zip(new, range(len(ids), len(ids) + len(new))))
    if numbered is not None:
        numbered.extend(new)
    return np.fromiter(map(ids.__getitem__, keys), dtype=np.int64, count=len(keys))


class GraphTables:
    """Memo of the graph rows of queries and pages.

    Every entry is a pure function of its key, so a table can serve any
    sequence of graphs over the same type system:

    * a query's sorted distinct word ids, and its template ids (derived only
      when a graph with templates first needs them);
    * a page's word ids (of ``page.token_set``), keyed by ``page_id`` and
      reused only for the very same :class:`Page` object;
    * the word rows of a query list, for the last list asked about (by
      identity: the list must not change while the table is in use).

    From these rows it answers which pages contain which queries
    (:meth:`containment`), which queries have a word on some page
    (:meth:`grounded`) and which have none of a set of words
    (:meth:`avoiding`).

    Word and template ids number the table's own vocabularies.  The table
    starts afresh when the type system changes, since templates depend on
    it.  A harvest session owns one table; nothing that outlives the
    session should hold it.
    """

    def __init__(self, type_system: TypeSystem) -> None:
        self.type_system = type_system
        self._clear()

    def _clear(self) -> None:
        self._version = getattr(self.type_system, "_version", None)
        self._word_ids: Dict[str, int] = {}
        self._query_ids: Dict[Query, int] = {}
        self._queries: List[Query] = []
        self._query_words = _RaggedRows()
        #: Row of each query id in ``_query_templates``, or ``_NO_ROW``.
        self._template_rows = np.zeros(0, dtype=np.int64)
        self._query_templates = _RaggedRows()
        self._template_ids: Dict[Template, int] = {}
        self._templates: List[Template] = []
        self._pages: Dict[str, Tuple[Page, np.ndarray]] = {}
        self._list_rows: Optional[Tuple[Sequence[Query], np.ndarray, np.ndarray]] = None

    def _current(self) -> None:
        if getattr(self.type_system, "_version", None) != self._version:
            self._clear()

    @property
    def num_words(self) -> int:
        """Size of the word vocabulary (every word id is below it)."""
        return len(self._word_ids)

    # -- Queries -------------------------------------------------------------
    def query_ids(self, queries: Sequence[Query]) -> np.ndarray:
        """Table ids of ``queries``, registering the ones not seen before.

        Ids stay valid until the type system changes.
        """
        self._current()
        known = self._query_ids
        ids = np.fromiter(map(known.get, queries, repeat(_NO_ROW)),
                          dtype=np.int64, count=len(queries))
        missing = np.flatnonzero(ids == _NO_ROW)
        if missing.size:
            unknown = [queries[position] for position in missing.tolist()]
            first_id = len(self._queries)
            ids[missing] = _numbered(unknown, known, self._queries)
            new = self._queries[first_id:]
            self._query_words.extend(*self._word_rows(new))
            self._template_rows = np.concatenate(
                [self._template_rows, np.full(len(new), _NO_ROW, dtype=np.int64)])
        return ids

    def _word_rows(self, queries: Sequence[Query]) -> Tuple[np.ndarray, np.ndarray]:
        """Each query's sorted distinct word ids, concatenated, and their counts."""
        words = _numbered(list(chain.from_iterable(queries)), self._word_ids)
        owners = np.repeat(np.arange(len(queries)),
                           np.fromiter(map(len, queries), dtype=np.int64,
                                       count=len(queries)))
        order = np.lexsort((words, owners))
        words, owners = words[order], owners[order]
        distinct = np.ones(words.size, dtype=bool)
        distinct[1:] = (words[1:] != words[:-1]) | (owners[1:] != owners[:-1])
        return words[distinct], np.bincount(owners[distinct], minlength=len(queries))

    def query_words(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated word ids of the queries ``ids``, and each row's length."""
        return self._query_words.gather(ids)

    def query_templates(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated template ids of the queries ``ids`` (each query's in
        :func:`~repro.core.templates.abstract_query` order), and each row's
        length."""
        rows = self._template_rows[ids]
        missing = np.flatnonzero(rows == _NO_ROW)
        if missing.size:
            new_ids = np.unique(ids[missing])
            abstractions = abstract_queries(
                [self._queries[query_id] for query_id in new_ids.tolist()],
                self.type_system)
            first_row = len(self._query_templates)
            self._query_templates.extend(
                _numbered(list(chain.from_iterable(abstractions)),
                          self._template_ids, self._templates),
                np.fromiter(map(len, abstractions), dtype=np.int64,
                            count=len(abstractions)))
            self._template_rows[new_ids] = np.arange(
                first_row, first_row + new_ids.size)
            rows = self._template_rows[ids]
        return self._query_templates.gather(rows)

    def templates(self, ids: np.ndarray) -> List[Template]:
        """The templates with table ids ``ids``."""
        templates = self._templates
        return [templates[template_id] for template_id in ids.tolist()]

    @property
    def num_queries(self) -> int:
        """Number of registered queries (every query id is below it)."""
        return len(self._queries)

    def queries(self, ids: np.ndarray) -> List[Query]:
        """The queries with table ids ``ids``."""
        queries = self._queries
        return [queries[query_id] for query_id in ids.tolist()]

    # -- Pages ---------------------------------------------------------------
    def page_words(self, pages: Sequence[Page]) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated word ids of ``pages``, and each page's count."""
        self._current()
        cached = self._pages
        rows = []
        for page in pages:
            entry = cached.get(page.page_id)
            if entry is None or entry[0] is not page:
                entry = cached[page.page_id] = (
                    page, _numbered(list(page.token_set), self._word_ids))
            rows.append(entry[1])
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        return (np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)), lengths

    # -- Containment ---------------------------------------------------------
    def containment(self, pages: Sequence[Page],
                    query_ids: np.ndarray) -> sparse.csr_matrix:
        """Binary ``pages × queries`` matrix: 1 where the page contains every
        word of the query (the queries ``query_ids``, in order).

        Containment is the proxy for "query q can retrieve page p": the
        learner builds its graph edges from it, and the baselines estimate
        a query's results from it, without firing the query.  The count of
        a query's words on a page is one sparse matmul,
        ``(pages × words) @ (words × queries)`` over binary incidence
        matrices; the page contains the query where the count equals the
        query's number of distinct words.  An empty query is contained in
        every page.
        """
        shape = (len(pages), query_ids.size)
        rows = cols = np.zeros(0, dtype=np.int64)
        if pages and query_ids.size:
            page_words, page_lengths = self.page_words(pages)
            query_words, query_lengths = self.query_words(query_ids)
            pages_by_word = sparse.csr_matrix(
                (np.ones(page_words.size), page_words, _indptr(page_lengths)),
                shape=(len(pages), self.num_words))
            words_by_query = sparse.csc_matrix(
                (np.ones(query_words.size), query_words, _indptr(query_lengths)),
                shape=(self.num_words, query_ids.size))
            counts = (pages_by_word @ words_by_query).tocoo()
            contained = counts.data == query_lengths[counts.col]
            rows = counts.row[contained].astype(np.int64)
            cols = counts.col[contained].astype(np.int64)
            vacuous = np.flatnonzero(query_lengths == 0)
            if vacuous.size:
                rows = np.concatenate([rows, np.tile(np.arange(len(pages)), vacuous.size)])
                cols = np.concatenate([cols, np.repeat(vacuous, len(pages))])
        return sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=shape,
                                 dtype=np.float64)

    # -- Query lists -----------------------------------------------------------
    def _list_words(self, queries: Sequence[Query]) -> Tuple[np.ndarray, np.ndarray]:
        """Word ids of the query list ``queries``, concatenated, and the list
        position each belongs to."""
        self._current()
        memo = self._list_rows
        if memo is None or memo[0] is not queries:
            words, lengths = self.query_words(self.query_ids(queries))
            owners = np.repeat(np.arange(len(queries)), lengths)
            memo = self._list_rows = (queries, words, owners)
        return memo[1], memo[2]

    def grounded(self, queries: Sequence[Query], pages: Sequence[Page]) -> np.ndarray:
        """Whether each query has at least one word on at least one of ``pages``."""
        words, owners = self._list_words(queries)
        page_words, _ = self.page_words(pages)
        observed = np.zeros(self.num_words, dtype=bool)
        observed[page_words] = True
        return np.bincount(owners[observed[words]], minlength=len(queries)) > 0

    def avoiding(self, queries: Sequence[Query], words: Iterable[str]) -> np.ndarray:
        """Whether each query has none of ``words``."""
        query_words, owners = self._list_words(queries)
        known = self._word_ids
        banned = np.zeros(self.num_words, dtype=bool)
        banned[[known[word] for word in words if word in known]] = True
        return np.bincount(owners[banned[query_words]], minlength=len(queries)) == 0


class GraphAssembler:
    """Builds reinforcement graphs from pages, candidate queries and templates."""

    def __init__(self, type_system: TypeSystem, config: Optional[L2QConfig] = None) -> None:
        self.type_system = type_system
        self.config = config if config is not None else L2QConfig()

    def assemble(self, pages: Sequence[Page], queries: Sequence[Query],
                 use_templates: bool = True,
                 tables: Optional[GraphTables] = None) -> AssembledGraph:
        """Build the graph.

        Parameters
        ----------
        pages:
            The page vertices (e.g. current result pages ``P_E`` or domain
            pages ``P_D``), with distinct page ids.
        queries:
            The distinct candidate query vertices.  Edges connect a query to
            every page that contains all of its words ("page p can be
            retrieved by query q"); queries with no containing page still
            become vertices (they may be connected through templates).
        use_templates:
            Whether to add the template layer (Sect. IV).
        tables:
            The memo the rows are read from (a harvest session passes its
            own); a fresh one when omitted.

        Raises ``ValueError`` on a duplicate page id or query.
        """
        if tables is None:
            tables = GraphTables(self.type_system)
        elif tables.type_system is not self.type_system:
            raise ValueError("graph tables belong to another type system")
        page_index = _distinct_index([page.page_id for page in pages], "page id")
        query_index = _distinct_index(queries, "query")
        query_ids = tables.query_ids(queries)
        page_query = tables.containment(pages, query_ids)

        template_index = VertexIndex()
        qt_rows = qt_cols = np.zeros(0, dtype=np.int64)
        if use_templates:
            template_ids, lengths = tables.query_templates(query_ids)
            distinct, first, inverse = np.unique(
                template_ids, return_index=True, return_inverse=True)
            # Template vertices in order of first appearance.
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            template_index.extend(tables.templates(distinct[order]))
            qt_rows = np.repeat(np.arange(len(queries)), lengths)
            qt_cols = rank[inverse.reshape(-1)]
        query_template = sparse.csr_matrix(
            (np.ones(qt_rows.size), (qt_rows, qt_cols)),
            shape=(len(query_index), len(template_index)), dtype=np.float64)

        graph = ReinforcementGraph(page_index, query_index, template_index,
                                   page_query, query_template)
        return AssembledGraph(
            graph=graph,
            pages=list(pages),
            queries=list(queries),
            templates=template_index.keys(),
        )


def _distinct_index(keys: Sequence, what: str) -> VertexIndex:
    index = VertexIndex()
    index.extend(keys)
    if len(index) != len(keys):
        raise ValueError(f"duplicate {what} among the graph's vertices")
    return index


def _indptr(lengths: np.ndarray) -> np.ndarray:
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


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
    return scaled_template_regularization(
        template_utilities, templates, adaptation_lambda,
        template_scale(template_utilities, normalize))


def template_scale(template_utilities: Mapping[Template, float],
                   normalize: bool = True) -> float:
    """The divisor :func:`template_regularization` applies: the largest
    positive domain utility (1.0 without ``normalize``), or 0.0 when no
    template has a positive utility, so that none is regularized."""
    positive = [float(value) for value in template_utilities.values() if value > 0]
    if not positive:
        return 0.0
    return max(positive) if normalize else 1.0


def scaled_template_regularization(template_utilities: Mapping[Template, float],
                                   templates: Iterable[Template],
                                   adaptation_lambda: float,
                                   scale: float) -> Dict[Template, float]:
    """``lambda * U_D(t) / scale`` for each of ``templates`` with a positive
    domain utility, in ``templates`` order (``{}`` when ``scale`` is 0)."""
    regularization: Dict[Template, float] = {}
    if scale <= 0:
        return regularization
    for template in templates:
        domain_value = template_utilities.get(template)
        if domain_value is not None and domain_value > 0:
            regularization[template] = adaptation_lambda * float(domain_value) / scale
    return regularization
