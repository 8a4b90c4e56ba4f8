"""Graph assembly and utility regularization for L2Q inference.

This module turns a working set of pages plus a candidate query pool into a
:class:`~repro.graph.reinforcement.ReinforcementGraph` (optionally extended
with templates) and provides the utility-regularization vectors of Sect. III
(Eqs. 11-12): every relevant page is guided towards precision 1, and the
relevant pages share a total recall mass of 1.

Graphs are assembled over a :class:`GraphTables`: one id space of queries,
numbered in lexicographic order, and one page set, with every query's words
and templates, every page's words and the ids every page contains derived
when the table is built.  A graph's vertices are then ids and page rows of
its table, and assembly gathers the pages' rows of contained ids for the
page-query edges and the queries' template rows for the query-template
edges; vertex order and every CSR array are exactly those of building the
graph vertex by vertex.  A harvester builds one table
per entity (see :mod:`repro.core.session`), and the domain phase one per
domain corpus.  The HR and AQ baselines read their candidates' containment
from the same kernel (:meth:`GraphTables.containment`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.aspects.relevance import RelevanceFunction
from repro.core.config import L2QConfig
from repro.core.queries import Query
from repro.core.templates import Template, abstract_queries
from repro.corpus.document import Page
from repro.corpus.knowledge_base import TypeSystem
from repro.graph.reinforcement import ReinforcementGraph, index_dtype
from repro.graph.random_walk import UtilitySolver


@dataclass
class AssembledGraph:
    """A built reinforcement graph and what its vertices stand for: the
    page rows, query ids and template ids of its :class:`GraphTables`, each
    in vertex order."""

    graph: ReinforcementGraph
    pages: np.ndarray
    queries: np.ndarray
    templates: np.ndarray

    def solver(self, config: L2QConfig) -> UtilitySolver:
        """Create a solver with the configured restart probability alpha."""
        return UtilitySolver(self.graph, alpha=config.alpha)


def _numbered(keys: Sequence, ids: Dict) -> np.ndarray:
    """The id of every key in ``ids``; a key without one gets the next free
    id (``len(ids)``)."""
    for key in keys:
        if key not in ids:
            ids[key] = len(ids)
    return np.fromiter(map(ids.__getitem__, keys), dtype=np.int64, count=len(keys))


def _indptr(lengths: np.ndarray) -> np.ndarray:
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def _gather(indptr: np.ndarray, values: np.ndarray,
            rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The values of ``rows`` of a ragged table, concatenated in order, and
    each row's length."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    shift = np.repeat(starts - (ends - lengths), lengths)
    return values[np.arange(total) + shift], lengths


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _positions(vertices: np.ndarray, size: int, what: str) -> np.ndarray:
    """Each of the ``size`` vertices' position in ``vertices``, -1 where
    absent; raises ``ValueError`` on a repeated vertex."""
    positions = np.arange(vertices.size)
    position_of = np.full(size, -1, dtype=np.int64)
    position_of[vertices] = positions
    if not np.array_equal(position_of[vertices], positions):
        raise ValueError(f"repeated {what}")
    return position_of


def _binary_csr(columns: np.ndarray, indptr: np.ndarray,
                shape: Tuple[int, int]) -> sparse.csr_matrix:
    """The canonical binary CSR of rows ``columns[indptr[i]:indptr[i + 1]]``,
    each row's columns distinct; they are sorted here.  The index arrays
    arrive in the dtype scipy would choose, so it scans and copies none."""
    index = index_dtype(*shape, columns.size)
    matrix = sparse.csr_matrix((np.ones(columns.size), columns.astype(index),
                                indptr.astype(index)), shape=shape)
    matrix.sort_indices()
    return matrix


class GraphTables:
    """The graph rows of one query id space over one page set.

    ``queries`` is the id space: the distinct queries of ``ngrams`` and
    ``domain_queries`` in lexicographic order, so a query's id is its
    position there and ids sort as queries do.  ``ngram_ids`` and
    ``domain_ids`` hold the id of each query of those two lists, in list
    order.  Page ``pages[r]`` is page row ``r``.

    Every row is derived when the table is built: each query's sorted
    distinct word ids and its template ids (in
    :func:`~repro.core.templates.abstract_query` order), and each page's
    ids of the query words it holds and ids of the queries it contains.  Word and template ids number the
    table's own vocabularies; ``templates`` lists the templates by id.  From
    these rows the table answers which pages contain which queries
    (:meth:`containment`), which queries have a word on some page
    (:meth:`grounded`) and which have none of a set of words
    (:meth:`avoiding`).

    A table never changes after it is built, apart from the memo of
    :meth:`template_values`, whose entries are pure functions of their key;
    so sessions on several threads may share it.  Its templates are those
    of the type system as it was when the table was built.
    """

    def __init__(self, type_system: TypeSystem, pages: Sequence[Page],
                 ngrams: Sequence[Query] = (),
                 domain_queries: Sequence[Query] = ()) -> None:
        self.type_system = type_system
        self.queries: Tuple[Query, ...] = tuple(sorted(set(ngrams).union(domain_queries)))
        position = {query: index for index, query in enumerate(self.queries)}.__getitem__
        self.ngram_ids, self.domain_ids = (
            _frozen(np.fromiter(map(position, queries), dtype=np.int64, count=len(queries)))
            for queries in (ngrams, domain_queries))
        self.pages: Tuple[Page, ...] = tuple(pages)
        if len({page.page_id for page in self.pages}) != len(self.pages):
            raise ValueError("graph tables need distinct page ids")

        # Each query's sorted distinct word ids.
        self._word_ids: Dict[str, int] = {}
        lengths = np.fromiter(map(len, self.queries), dtype=np.int64,
                              count=len(self.queries))
        words = _numbered(list(chain.from_iterable(self.queries)), self._word_ids)
        owners = np.repeat(np.arange(len(self.queries)), lengths)
        order = np.lexsort((words, owners))
        words, owners = words[order], owners[order]
        distinct = np.ones(words.size, dtype=bool)
        distinct[1:] = (words[1:] != words[:-1]) | (owners[1:] != owners[:-1])
        self._query_words = _frozen(words[distinct])
        self._word_owners = _frozen(owners[distinct])

        # Each page's query words.
        known = self._word_ids
        page_words = [[known[word] for word in page.token_set if word in known]
                      for page in self.pages]
        self._page_words = _frozen(np.fromiter(
            chain.from_iterable(page_words), dtype=np.int64,
            count=sum(map(len, page_words))))
        self._page_word_ptr = _frozen(_indptr(np.fromiter(
            map(len, page_words), dtype=np.int64, count=len(page_words))))

        # Each page's contained ids.  A page holds every word of a query
        # where the count of the query's words on the page, one sparse
        # matmul of binary incidences, equals the query's number of distinct
        # words.  An empty query counts as holding one word, a word every
        # page holds, so that every page contains it.
        num_pages, num_queries = len(self.pages), len(self.queries)
        word_counts = np.bincount(self._word_owners, minlength=num_queries)
        required = np.maximum(word_counts, 1)
        everywhere = self.num_words
        pages_by_word = sparse.csr_matrix(
            (np.ones(self._page_words.size + num_pages),
             np.insert(self._page_words, self._page_word_ptr[1:], everywhere),
             self._page_word_ptr + np.arange(num_pages + 1)),
            shape=(num_pages, everywhere + 1))
        words_by_query = sparse.csc_matrix(
            (np.ones(required.sum()),
             np.insert(self._query_words,
                       _indptr(word_counts)[:-1][word_counts == 0], everywhere),
             _indptr(required)),
            shape=(everywhere + 1, num_queries))
        counts = pages_by_word @ words_by_query
        contained = np.flatnonzero(counts.data == required[counts.indices])
        self._page_ids = _frozen(counts.indices[contained].astype(np.int64))
        self._page_id_ptr = _frozen(np.searchsorted(contained, counts.indptr))

        # Each query's templates.
        abstractions = abstract_queries(self.queries, type_system)
        template_ids: Dict[Template, int] = {}
        self._query_templates = _frozen(_numbered(
            list(chain.from_iterable(abstractions)), template_ids))
        self._query_template_ptr = _frozen(_indptr(np.fromiter(
            map(len, abstractions), dtype=np.int64, count=len(abstractions))))
        self.templates: Tuple[Template, ...] = tuple(template_ids)
        self._template_values: Dict[int, Tuple[Mapping[Template, float],
                                               np.ndarray]] = {}

    @property
    def num_queries(self) -> int:
        """Size of the id space (every query id is below it)."""
        return len(self.queries)

    @property
    def num_words(self) -> int:
        """Size of the word vocabulary (every word id is below it)."""
        return len(self._word_ids)

    # -- Ids -------------------------------------------------------------------
    def id_of(self, query: Query) -> Optional[int]:
        """The id of ``query``, or ``None`` outside the id space (a binary
        search: ids sort as queries do)."""
        index = bisect_left(self.queries, query)
        if index < len(self.queries) and self.queries[index] == query:
            return index
        return None

    def ids(self, queries: Sequence[Query]) -> np.ndarray:
        """The ids of ``queries``; each must be in the id space."""
        ids = [self.id_of(query) for query in queries]
        if None in ids:
            raise KeyError(f"{queries[ids.index(None)]!r} is not in the id space")
        return np.array(ids, dtype=np.int64)

    def queries_of(self, ids: np.ndarray) -> List[Query]:
        """The queries with ids ``ids``."""
        queries = self.queries
        return [queries[query_id] for query_id in ids.tolist()]

    # -- Rows ------------------------------------------------------------------
    def query_templates(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated template ids of the queries ``ids`` (each query's in
        :func:`~repro.core.templates.abstract_query` order), and each row's
        length."""
        return _gather(self._query_template_ptr, self._query_templates, ids)

    def template_values(self, utilities: Mapping[Template, float]) -> np.ndarray:
        """Each template's value in ``utilities`` by template id, 0.0 where
        absent.

        Memoised per mapping object, which must not change afterwards (a
        domain model's template utilities): the entity's sessions of one
        aspect look it up once.  Threads that race on a first lookup compute
        the same array, and the first one stored is kept.
        """
        entry = self._template_values.get(id(utilities))
        if entry is None or entry[0] is not utilities:
            values = np.fromiter((utilities.get(template, 0.0)
                                  for template in self.templates),
                                 dtype=np.float64, count=len(self.templates))
            entry = self._template_values.setdefault(id(utilities),
                                                     (utilities, _frozen(values)))
        return entry[1]

    def containment(self, pages: np.ndarray, query_ids: np.ndarray) -> sparse.csr_matrix:
        """Binary ``pages × queries`` matrix: 1 where the page (a row of the
        table) contains every word of the query (the distinct queries
        ``query_ids``, in order).

        Containment is the proxy for "query q can retrieve page p": the
        learner builds its graph edges from it, and the baselines estimate
        a query's results from it, without firing the query.  The pages'
        rows of contained ids, derived when the table was built, are
        gathered, the ids of ``query_ids`` kept and renumbered to their
        columns, and each row's columns sorted: one canonical CSR.  An
        empty query is contained in every page.

        Raises ``ValueError`` on a repeated page row or id.
        """
        _positions(pages, len(self.pages), "page rows")
        column_of = _positions(query_ids, self.num_queries, "query ids")
        ids, lengths = _gather(self._page_id_ptr, self._page_ids, pages)
        columns = column_of[ids]
        kept = np.flatnonzero(columns >= 0)
        return _binary_csr(columns[kept], np.searchsorted(kept, _indptr(lengths)),
                           (pages.size, query_ids.size))

    # -- Masks over the id space -------------------------------------------------
    def grounded(self, pages: np.ndarray) -> np.ndarray:
        """Per id: whether the query has a word on at least one of ``pages``
        (rows of the table)."""
        page_words, _ = _gather(self._page_word_ptr, self._page_words, pages)
        observed = np.zeros(self.num_words, dtype=bool)
        observed[page_words] = True
        return np.bincount(self._word_owners[observed[self._query_words]],
                           minlength=self.num_queries) > 0

    def avoiding(self, words: Iterable[str]) -> np.ndarray:
        """Per id: whether the query has none of ``words``."""
        known = self._word_ids
        banned = np.zeros(self.num_words, dtype=bool)
        banned[[known[word] for word in words if word in known]] = True
        return np.bincount(self._word_owners[banned[self._query_words]],
                           minlength=self.num_queries) == 0


class GraphAssembler:
    """Builds reinforcement graphs from pages, candidate queries and templates."""

    def __init__(self, type_system: TypeSystem) -> None:
        self.type_system = type_system

    def assemble(self, tables: GraphTables, pages: np.ndarray, queries: np.ndarray,
                 use_templates: bool = True) -> AssembledGraph:
        """Build the graph.

        Parameters
        ----------
        tables:
            The table the rows are read from.
        pages:
            The page vertices (e.g. current result pages ``P_E`` or domain
            pages ``P_D``) as distinct rows of ``tables``.
        queries:
            The candidate query vertices as distinct ids of ``tables``.
            Edges connect a query to every page that contains all of its
            words ("page p can be retrieved by query q"); queries with no
            containing page still become vertices (they may be connected
            through templates).
        use_templates:
            Whether to add the template layer (Sect. IV).  Template vertices
            come in order of first appearance among the queries' templates.

        Raises ``ValueError`` on tables of another type system, and
        (through :meth:`GraphTables.containment`) on a duplicate page or query.
        """
        if tables.type_system is not self.type_system:
            raise ValueError("graph tables belong to another type system")
        page_query = tables.containment(pages, queries)

        templates = columns = np.zeros(0, dtype=np.int64)
        lengths = np.zeros(queries.size, dtype=np.int64)
        if use_templates:
            template_ids, lengths = tables.query_templates(queries)
            # Template vertices in order of each one's first appearance.
            first = np.full(len(tables.templates), template_ids.size)
            np.minimum.at(first, template_ids, np.arange(template_ids.size))
            templates = np.flatnonzero(first < template_ids.size)
            templates = templates[np.argsort(first[templates])]
            vertex = np.empty(len(tables.templates), dtype=np.int64)
            vertex[templates] = np.arange(templates.size)
            columns = vertex[template_ids]
        query_template = _binary_csr(columns, _indptr(lengths),
                                     (queries.size, templates.size))
        return AssembledGraph(graph=ReinforcementGraph(page_query, query_template),
                              pages=pages, queries=queries, templates=templates)


# ---------------------------------------------------------------------------
# Utility regularization (Eqs. 11-12)
# ---------------------------------------------------------------------------

def page_regularizations(pages: Sequence[Page], relevance: RelevanceFunction
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The page regularizations of one relevance pass, each per page in
    page order: ``P_hat(p) = Y(p)``, every relevant page guided towards
    precision 1; ``R_hat(p) = Y(p) / sum_p' Y(p')``, relevant pages sharing
    recall mass 1; and ``R_hat*``, the recall regularization with every
    page relevant (``Y*``, Sect. V-B)."""
    labels = np.array([float(relevance(page)) for page in pages], dtype=np.float64)
    return labels, _recall_shares(labels), _recall_shares(np.ones(len(pages)))


def _recall_shares(labels: np.ndarray) -> np.ndarray:
    """``labels / sum(labels)``, or zeros when the sum is not positive."""
    total = sum(labels.tolist())
    if total <= 0:
        return np.zeros(labels.size)
    return labels / total


def template_regularization(domain_values: np.ndarray, adaptation_lambda: float,
                            scale: float) -> np.ndarray:
    """``U_hat_E(t) = lambda * U_D(t) / scale`` for templates learnt in the
    domain phase, given each graph template's domain utility.

    Only templates with a positive domain utility, which therefore appear
    both in the domain model and in the entity graph (``t in T_E intersect
    T_D``, Eqs. 21-22), receive regularization; with ``scale`` 0 none does.
    """
    if scale <= 0:
        return np.zeros(domain_values.size)
    return np.where(domain_values > 0,
                    adaptation_lambda * domain_values / scale, 0.0)


def template_scale(template_utilities: Mapping[Template, float],
                   normalize: bool = True) -> float:
    """The divisor :func:`template_regularization` applies: the largest
    positive domain utility (1.0 without ``normalize``), or 0.0 when no
    template has a positive utility, so that none is regularized.

    The paper's domain graph and ours differ in size by orders of
    magnitude, and recall-mode utilities scale inversely with graph size;
    normalising makes the adaptation strength ``lambda`` comparable across
    modes and corpus scales (the ranking of templates is unchanged).
    """
    positive = [float(value) for value in template_utilities.values() if value > 0]
    if not positive:
        return 0.0
    return max(positive) if normalize else 1.0
