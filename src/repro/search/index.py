"""The search index: one immutable term–document matrix per document set.

The index is the storage layer beneath the retrieval models
(:mod:`repro.search.language_model`, :mod:`repro.search.bm25`).  Documents
are arbitrary token sequences keyed by a string id; in this project they are
web pages.

An :class:`InvertedIndex` is a :class:`TermDocumentMatrix` — a CSR term
frequency matrix with rows in sorted document-id order and columns in
sorted term order, plus the document-length and collection-frequency
vectors — built once from its documents and never mutated; every statistic
the index reports is read from that matrix.  The search engine indexes the
*whole* corpus exactly once and serves each entity through
:meth:`InvertedIndex.view`: an index over the corpus matrix's rows of that
entity's pages, with the terms they never use dropped, so its statistics
are those of a from-scratch index of the entity's pages (the seed query
scopes retrieval to a single entity, see :mod:`repro.search.engine`).  A
corpus attached from the shared store is an index over the store's
published matrix, zero-copy.  Its dict-postings reference is
``tests/oracles.py::ReferenceIndex``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse


class TermDocumentMatrix:
    """An immutable CSR snapshot of an index: tf matrix plus statistic vectors.

    The matrix layer beneath the batched ranker kernels
    (:meth:`repro.search.language_model.DirichletLanguageModel.rank_many`,
    :meth:`repro.search.bm25.BM25Ranker.rank_many`): a ``docs × terms``
    term-frequency matrix with rows in sorted-document-id order and columns
    in sorted-term order, alongside the cached document-length and
    collection-frequency vectors every retrieval model needs.  Term
    frequencies are exact integers stored as float64, so all derived
    statistics are exact.
    """

    __slots__ = ("doc_ids", "terms", "matrix", "matrix_csc", "doc_lengths",
                 "collection_frequencies", "total_tokens", "_doc_positions",
                 "_term_positions")

    def __init__(self, doc_ids: Sequence[str], terms: Sequence[str],
                 matrix: sparse.csr_matrix, doc_lengths: np.ndarray,
                 collection_frequencies: np.ndarray, total_tokens: int) -> None:
        self.doc_ids: Tuple[str, ...] = tuple(doc_ids)
        self.terms: Tuple[str, ...] = tuple(terms)
        self.matrix = matrix.tocsr()
        # Column access (per query term) is the kernel's hot operation.
        self.matrix_csc = self.matrix.tocsc()
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.float64)
        self.collection_frequencies = np.asarray(collection_frequencies,
                                                 dtype=np.float64)
        self.total_tokens = int(total_tokens)
        self._doc_positions = {doc_id: i for i, doc_id in enumerate(self.doc_ids)}
        self._term_positions = {term: j for j, term in enumerate(self.terms)}

    @classmethod
    def from_counts(cls, doc_ids: Sequence[str],
                    counts: Sequence[Mapping[str, int]]) -> "TermDocumentMatrix":
        """The matrix of documents given as ``{term: count}`` bags.

        ``doc_ids`` must be sorted; ``counts[i]`` is the bag of
        ``doc_ids[i]``, whose length is the sum of its counts.
        """
        terms = sorted(set().union(*counts))
        positions = {term: j for j, term in enumerate(terms)}
        distinct = np.fromiter(map(len, counts), dtype=np.int64, count=len(counts))
        rows = np.repeat(np.arange(len(counts), dtype=np.int64), distinct)
        cols = np.asarray([positions[term] for bag in counts for term in bag],
                          dtype=np.int64)
        data = np.asarray([tf for bag in counts for tf in bag.values()],
                          dtype=np.float64)
        matrix = sparse.csr_matrix((data, (rows, cols)),
                                   shape=(len(counts), len(terms)))
        sizes = [sum(bag.values()) for bag in counts]
        collection = np.bincount(cols, weights=data, minlength=len(terms))
        return cls(doc_ids, terms, matrix, np.asarray(sizes, dtype=np.float64),
                   collection, sum(sizes))

    def restrict(self, doc_ids: Sequence[str]) -> "TermDocumentMatrix":
        """The rows of ``doc_ids`` (sorted, all present), without the terms
        those documents never use."""
        rows = np.asarray([self._doc_positions[d] for d in doc_ids], dtype=np.int64)
        restricted = self.matrix[rows]
        frequencies = np.asarray(restricted.sum(axis=0)).ravel()
        columns = np.flatnonzero(frequencies)
        doc_lengths = self.doc_lengths[rows]
        return TermDocumentMatrix(
            doc_ids, [self.terms[c] for c in columns],
            restricted[:, columns].tocsr(), doc_lengths, frequencies[columns],
            int(doc_lengths.sum()))

    @property
    def num_documents(self) -> int:
        """Number of document rows."""
        return len(self.doc_ids)

    @property
    def num_terms(self) -> int:
        """Number of term columns."""
        return len(self.terms)

    def doc_position(self, doc_id: str) -> Optional[int]:
        """Row of ``doc_id``, or ``None`` if absent."""
        return self._doc_positions.get(doc_id)

    def term_position(self, term: str) -> Optional[int]:
        """Column of ``term``, or ``None`` if absent."""
        return self._term_positions.get(term)

    def term_column(self, column: int) -> Tuple[np.ndarray, np.ndarray]:
        """The sparse column ``column`` as ``(row_indices, tf_values)``."""
        csc = self.matrix_csc
        start, end = csc.indptr[column], csc.indptr[column + 1]
        return csc.indices[start:end], csc.data[start:end]


class QueryBatch:
    """A batch of queries over one :class:`TermDocumentMatrix`.

    The shared half of the rankers' ``rank_many`` kernels.  Empty tokens
    are dropped from each query, and the batch's distinct terms are
    gathered once: ``term_frequencies`` is a dense ``terms × docs`` array,
    a zero row for a term the matrix lacks, and ``columns`` holds each
    term's matrix column or ``-1``.  A ranker turns the terms into a
    ``terms × docs`` array of per-term contributions; :meth:`totals` sums
    them per query, term by term in query order, and :meth:`ranked` orders
    each query's documents.
    """

    def __init__(self, matrix: TermDocumentMatrix,
                 queries: Sequence[Sequence[str]]) -> None:
        self.matrix = matrix
        cleaned = [[term for term in query if term] for query in queries]
        positions: Dict[str, int] = {}
        rows = [[positions.setdefault(term, len(positions)) for term in query]
                for query in cleaned]
        self.terms: List[str] = list(positions)
        self.lengths = np.array([len(query) for query in cleaned], dtype=np.int64)
        # Each query's term rows, padded with ``len(terms)``: the index of
        # the zero row below the terms in :meth:`totals` and :meth:`ranked`.
        width, pad = int(self.lengths.max(initial=0)), len(self.terms)
        self.term_rows = np.array([query + [pad] * (width - len(query)) for query in rows],
                                  dtype=np.int64).reshape(len(rows), width)
        self.columns = np.array(
            [-1 if column is None else column
             for column in map(matrix.term_position, self.terms)], dtype=np.int64)
        # The known terms' sparse columns, gathered straight from the CSC
        # arrays into the rows above the padding row.
        self._padded_frequencies = np.zeros((pad + 1, matrix.num_documents))
        self.term_frequencies = self._padded_frequencies[:pad]
        known = np.flatnonzero(self.columns >= 0)
        csc = matrix.matrix_csc
        starts = csc.indptr[self.columns[known]]
        counts = csc.indptr[self.columns[known] + 1] - starts
        entries = np.repeat(starts - (np.cumsum(counts) - counts), counts) \
            + np.arange(counts.sum())
        self._padded_frequencies[np.repeat(known, counts), csc.indices[entries]] = \
            csc.data[entries]

    def totals(self, contributions: np.ndarray) -> np.ndarray:
        """Per-query sums of the ``terms × docs`` ``contributions``.

        Each query's terms are added left to right from zeros, in query
        order.  Starting from ``+0.0`` (or adding a padding ``+0.0``)
        changes no sum unless a contribution is ``-0.0``, which neither
        ranker produces.
        """
        num_documents = self.matrix.num_documents
        padded = np.concatenate((contributions, np.zeros((1, num_documents))))
        total = np.zeros((self.lengths.size, num_documents))
        for position in range(self.term_rows.shape[1]):
            total = total + padded[self.term_rows[:, position]]
        return total

    def ranked(self, totals: np.ndarray, top_k: int,
               require_match: bool) -> List[List[Tuple[str, float]]]:
        """Each query's ``(doc_id, score)`` ranking: best score first, ties
        in doc-id order, cut to ``top_k`` when positive.

        ``require_match`` keeps the documents holding any of the query's
        terms; an empty query ranks nothing.  Rows are in sorted doc-id
        order, so a stable sort on the negated score gives the
        ``(-score, doc_id)`` order.
        """
        if require_match:
            matched = (self._padded_frequencies[self.term_rows] > 0.0).any(axis=1)
        else:
            matched = np.ones(totals.shape, dtype=bool)
        matched &= (self.lengths > 0)[:, None]
        order = np.argsort(np.where(matched, -totals, np.inf), axis=1, kind="stable")
        counts = matched.sum(axis=1)
        if top_k > 0:
            counts = np.minimum(counts, top_k)
        order = order[:, :int(counts.max(initial=0))]
        scores = totals[np.arange(totals.shape[0])[:, None], order].tolist()
        doc_ids = self.matrix.doc_ids
        return [[(doc_ids[row], score) for row, score in zip(rows[:count], row_scores)]
                for rows, row_scores, count
                in zip(order.tolist(), scores, counts.tolist())]


class InvertedIndex:
    """An immutable index over one :class:`TermDocumentMatrix`."""

    def __init__(self, matrix: TermDocumentMatrix) -> None:
        self._matrix = matrix

    @classmethod
    def from_documents(cls, documents: Mapping[str, Sequence[str]]) -> "InvertedIndex":
        """Build an index from a ``{doc_id: tokens}`` mapping."""
        doc_ids = sorted(documents)
        return cls(TermDocumentMatrix.from_counts(
            doc_ids, [Counter(documents[doc_id]) for doc_id in doc_ids]))

    # -- Document statistics ---------------------------------------------------
    @property
    def num_documents(self) -> int:
        """Number of indexed documents."""
        return self._matrix.num_documents

    @property
    def total_tokens(self) -> int:
        """Total number of tokens across all documents."""
        return self._matrix.total_tokens

    @property
    def average_document_length(self) -> float:
        """Mean document length in tokens (0.0 for an empty index)."""
        if not self.num_documents:
            return 0.0
        return self.total_tokens / self.num_documents

    def document_ids(self) -> List[str]:
        """All indexed document ids, sorted."""
        return list(self._matrix.doc_ids)

    def document_length(self, doc_id: str) -> int:
        """Length of one document (raises ``KeyError`` if unknown)."""
        row = self._matrix.doc_position(doc_id)
        if row is None:
            raise KeyError(doc_id)
        return int(self._matrix.doc_lengths[row])

    def __contains__(self, doc_id: str) -> bool:
        return self._matrix.doc_position(doc_id) is not None

    # -- Term statistics -----------------------------------------------------------
    def _postings(self, term: str) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and frequencies of the documents holding ``term``."""
        column = self._matrix.term_position(term)
        if column is None:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        return self._matrix.term_column(column)

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Frequency of ``term`` in ``doc_id`` (0 if absent)."""
        row = self._matrix.doc_position(doc_id)
        column = self._matrix.term_position(term)
        if row is None or column is None:
            return 0
        return int(self._matrix.matrix[row, column])

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return int(self._postings(term)[0].size)

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` in the collection."""
        column = self._matrix.term_position(term)
        if column is None:
            return 0
        return int(self._matrix.collection_frequencies[column])

    def collection_probability(self, term: str) -> float:
        """Maximum-likelihood collection probability of ``term``."""
        if self.total_tokens == 0:
            return 0.0
        return self.collection_frequency(term) / self.total_tokens

    def postings(self, term: str) -> Dict[str, int]:
        """The postings of ``term`` (``{doc_id: tf}``, in doc-id order)."""
        doc_ids = self._matrix.doc_ids
        rows, frequencies = self._postings(term)
        return {doc_ids[row]: int(tf)
                for row, tf in zip(rows.tolist(), frequencies.tolist())}

    def matching_documents(self, terms: Iterable[str],
                           require_all: bool = False) -> Set[str]:
        """Documents containing any (or all) of ``terms``."""
        row_sets = [set(self._postings(term)[0].tolist()) for term in terms]
        if not row_sets:
            return set()
        rows = (set.intersection(*row_sets) if require_all
                else set.union(*row_sets))
        doc_ids = self._matrix.doc_ids
        return {doc_ids[row] for row in rows}

    def vocabulary(self) -> List[str]:
        """All indexed terms, sorted."""
        return list(self._matrix.terms)

    # -- Matrix and views ---------------------------------------------------------
    def term_document_matrix(self) -> TermDocumentMatrix:
        """The CSR matrix this index reads its statistics from."""
        return self._matrix

    def view(self, doc_ids: Iterable[str]) -> "InvertedIndex":
        """This index restricted to ``doc_ids``: every statistic is that of
        a from-scratch index of those documents (``KeyError`` names any
        document this index lacks)."""
        ids = sorted(set(doc_ids))
        missing = [d for d in ids if d not in self]
        if missing:
            raise KeyError(f"documents not in parent index: {missing[:3]!r}")
        return InvertedIndex(self._matrix.restrict(ids))
