"""Inverted index with collection statistics, plus cheap scoped views.

The index is the storage layer beneath the retrieval models
(:mod:`repro.search.language_model`, :mod:`repro.search.bm25`).  Documents
are arbitrary token sequences keyed by a string id; in this project they are
web pages.

The search engine indexes the *whole* corpus exactly once and then serves
each entity through an :class:`IndexView` restricted to that entity's page
universe (the seed query scopes retrieval to a single entity, see
:mod:`repro.search.engine`).  A view exposes the same statistics interface
as a from-scratch per-entity :class:`InvertedIndex` — term frequencies,
document/collection frequencies and collection probabilities are all
computed over the view's documents only — but shares the underlying
postings, so N entities cost one tokenization/counting pass instead of N.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

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
    statistics match the scalar dictionary lookups bit for bit.
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
    """A simple in-memory inverted index."""

    def __init__(self) -> None:
        self._postings: Dict[str, Dict[str, int]] = defaultdict(dict)
        self._doc_lengths: Dict[str, int] = {}
        self._collection_frequency: Counter = Counter()
        self._total_tokens = 0
        self._matrix: Optional[TermDocumentMatrix] = None

    # -- Construction ------------------------------------------------------
    def add_document(self, doc_id: str, tokens: Sequence[str]) -> None:
        """Index one document.  Re-adding an existing id raises ``ValueError``."""
        if doc_id in self._doc_lengths:
            raise ValueError(f"document {doc_id!r} already indexed")
        counts = Counter(tokens)
        self._doc_lengths[doc_id] = len(tokens)
        self._total_tokens += len(tokens)
        for term, tf in counts.items():
            self._postings[term][doc_id] = tf
            self._collection_frequency[term] += tf
        # The CSR snapshot is a pure function of the postings; incremental
        # updates invalidate it and the next access rebuilds lazily.
        self._matrix = None

    @classmethod
    def from_documents(cls, documents: Mapping[str, Sequence[str]]) -> "InvertedIndex":
        """Build an index from a ``{doc_id: tokens}`` mapping."""
        index = cls()
        for doc_id in sorted(documents):
            index.add_document(doc_id, documents[doc_id])
        return index

    # -- Document statistics ---------------------------------------------------
    @property
    def num_documents(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_lengths)

    @property
    def total_tokens(self) -> int:
        """Total number of tokens across all documents."""
        return self._total_tokens

    @property
    def average_document_length(self) -> float:
        """Mean document length in tokens (0.0 for an empty index)."""
        if not self._doc_lengths:
            return 0.0
        return self._total_tokens / len(self._doc_lengths)

    def document_ids(self) -> List[str]:
        """All indexed document ids, sorted."""
        return sorted(self._doc_lengths)

    def document_length(self, doc_id: str) -> int:
        """Length of one document (raises ``KeyError`` if unknown)."""
        return self._doc_lengths[doc_id]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    # -- Term statistics -----------------------------------------------------------
    def term_frequency(self, term: str, doc_id: str) -> int:
        """Frequency of ``term`` in ``doc_id`` (0 if absent)."""
        return self._postings.get(term, {}).get(doc_id, 0)

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, {}))

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` in the collection."""
        return self._collection_frequency.get(term, 0)

    def collection_probability(self, term: str) -> float:
        """Maximum-likelihood collection probability of ``term``."""
        if self._total_tokens == 0:
            return 0.0
        return self._collection_frequency.get(term, 0) / self._total_tokens

    def postings(self, term: str) -> Dict[str, int]:
        """Return a copy of the postings for ``term`` (``{doc_id: tf}``)."""
        return dict(self._postings.get(term, {}))

    def matching_documents(self, terms: Iterable[str],
                           require_all: bool = False) -> Set[str]:
        """Documents containing any (or all) of ``terms``."""
        term_list = list(terms)
        if not term_list:
            return set()
        sets = [set(self._postings.get(term, {})) for term in term_list]
        if require_all:
            result = sets[0]
            for other in sets[1:]:
                result &= other
            return result
        result = set()
        for other in sets:
            result |= other
        return result

    def vocabulary(self) -> List[str]:
        """All indexed terms, sorted."""
        return sorted(self._postings)

    # -- Matrix view -------------------------------------------------------------
    def term_document_matrix(self) -> TermDocumentMatrix:
        """The (lazily built, cached) CSR snapshot of this index.

        Invalidated by :meth:`add_document`; because indexed term
        frequencies are immutable, a returned snapshot stays valid for the
        documents it covers even after the index grows.
        """
        if self._matrix is None:
            self._matrix = self._build_matrix()
        return self._matrix

    def _build_matrix(self) -> TermDocumentMatrix:
        doc_ids = sorted(self._doc_lengths)
        terms = sorted(self._postings)
        doc_positions = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        rows: List[int] = []
        cols: List[int] = []
        data: List[int] = []
        for column, term in enumerate(terms):
            for doc_id, tf in self._postings[term].items():
                rows.append(doc_positions[doc_id])
                cols.append(column)
                data.append(tf)
        matrix = sparse.csr_matrix(
            (np.asarray(data, dtype=np.float64),
             (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(len(doc_ids), len(terms)))
        doc_lengths = np.asarray([self._doc_lengths[d] for d in doc_ids],
                                 dtype=np.float64)
        collection = np.asarray([self._collection_frequency[t] for t in terms],
                                dtype=np.float64)
        return TermDocumentMatrix(doc_ids, terms, matrix, doc_lengths,
                                  collection, self._total_tokens)

    # -- Scoped views -----------------------------------------------------------
    def view(self, doc_ids: Iterable[str]) -> "IndexView":
        """A view of this index restricted to ``doc_ids``."""
        return IndexView(self, doc_ids)


class _SnapshotPostings(Mapping):
    """Lazy ``{term: {doc_id: tf}}`` postings over a CSR snapshot.

    Backs :class:`AttachedInvertedIndex`: per-term postings dicts are
    materialised from the snapshot's CSC columns on first access and cached.
    Column row-indices are sorted, so each dict's insertion order is sorted
    doc-id order — the same order :meth:`InvertedIndex.add_document` produces
    when documents arrive in sorted id order, keeping every iteration-order-
    sensitive consumer bit-identical to the rebuilt index.
    """

    __slots__ = ("_snapshot", "_cache")

    def __init__(self, snapshot: TermDocumentMatrix) -> None:
        self._snapshot = snapshot
        self._cache: Dict[str, Dict[str, int]] = {}

    def __getitem__(self, term: str) -> Dict[str, int]:
        postings = self._cache.get(term)
        if postings is None:
            column = self._snapshot.term_position(term)
            if column is None:
                raise KeyError(term)
            rows, values = self._snapshot.term_column(column)
            doc_ids = self._snapshot.doc_ids
            postings = {doc_ids[row]: int(tf)
                        for row, tf in zip(rows, values)}
            self._cache[term] = postings
        return postings

    def __iter__(self):
        return iter(self._snapshot.terms)

    def __len__(self) -> int:
        return self._snapshot.num_terms

    def __contains__(self, term: object) -> bool:
        return self._snapshot.term_position(term) is not None  # type: ignore[arg-type]


class AttachedInvertedIndex(InvertedIndex):
    """A read-only :class:`InvertedIndex` reconstructed from a CSR snapshot.

    The attach-construction path of the shared corpus store: instead of
    re-tokenising and re-counting every document, the index adopts a
    published :class:`TermDocumentMatrix` (typically zero-copy views over a
    shared-memory segment) as its matrix snapshot and serves the dictionary
    interface through lazy per-term postings.  All statistics — term/
    document/collection frequencies, probabilities, views — are bit-for-bit
    identical to an index built by adding the same documents in sorted id
    order, because the snapshot is a pure function of exactly that build.
    """

    def __init__(self, snapshot: TermDocumentMatrix) -> None:
        self._postings = _SnapshotPostings(snapshot)  # type: ignore[assignment]
        self._doc_lengths = {doc_id: int(length)
                             for doc_id, length
                             in zip(snapshot.doc_ids, snapshot.doc_lengths)}
        self._collection_frequency = Counter(
            {term: int(cf) for term, cf
             in zip(snapshot.terms, snapshot.collection_frequencies)})
        self._total_tokens = snapshot.total_tokens
        self._matrix = snapshot

    def add_document(self, doc_id: str, tokens: Sequence[str]) -> None:
        raise TypeError("attached indexes are read-only; "
                        "rebuild from the corpus to extend")


class IndexView:
    """A read-only restriction of an :class:`InvertedIndex` to a document subset.

    All statistics (document lengths, term/document/collection frequencies,
    collection probabilities) are reported as if only the view's documents
    had been indexed, so retrieval models ranking through a view behave
    identically to ranking over a from-scratch index of those documents.
    Per-term restricted postings are materialised lazily and cached, so a
    view costs O(1) to create and only pays for the terms actually queried.
    """

    def __init__(self, parent: InvertedIndex, doc_ids: Iterable[str]) -> None:
        self._parent = parent
        ids = set(doc_ids)
        missing = [d for d in ids if d not in parent]
        if missing:
            raise KeyError(f"documents not in parent index: {sorted(missing)[:3]!r}")
        self._doc_ids: FrozenSet[str] = frozenset(ids)
        self._total_tokens = sum(parent.document_length(d) for d in self._doc_ids)
        # term -> (restricted postings, their tf sum); the sum is cached so
        # collection_frequency stays O(1) on the ranker's innermost loop.
        self._postings_cache: Dict[str, Tuple[Dict[str, int], int]] = {}
        # The document subset is frozen and indexed term frequencies are
        # immutable, so a built snapshot never goes stale.
        self._matrix: Optional[TermDocumentMatrix] = None

    #: Shared sentinel for terms absent from a view, so caching a miss costs
    #: one dict slot instead of a fresh empty dict per term.
    _EMPTY_STATS: Tuple[Dict[str, int], int] = ({}, 0)

    def _restricted_stats(self, term: str,
                          cache_empty: bool = True) -> Tuple[Dict[str, int], int]:
        cached = self._postings_cache.get(term)
        if cached is None:
            postings = {doc_id: tf
                        for doc_id, tf in self._parent._postings.get(term, {}).items()
                        if doc_id in self._doc_ids}
            cached = (postings, sum(postings.values())) if postings else self._EMPTY_STATS
            # Misses are cached too (rankers probe absent query terms once per
            # scored document), except during vocabulary() sweeps, which would
            # otherwise pin one cache key per corpus term.
            if postings or cache_empty:
                self._postings_cache[term] = cached
        return cached

    def _restricted(self, term: str) -> Dict[str, int]:
        return self._restricted_stats(term)[0]

    # -- Document statistics ---------------------------------------------------
    @property
    def num_documents(self) -> int:
        """Number of documents in the view."""
        return len(self._doc_ids)

    @property
    def total_tokens(self) -> int:
        """Total number of tokens across the view's documents."""
        return self._total_tokens

    @property
    def average_document_length(self) -> float:
        """Mean document length in tokens (0.0 for an empty view)."""
        if not self._doc_ids:
            return 0.0
        return self._total_tokens / len(self._doc_ids)

    def document_ids(self) -> List[str]:
        """The view's document ids, sorted."""
        return sorted(self._doc_ids)

    def document_length(self, doc_id: str) -> int:
        """Length of one document (raises ``KeyError`` if outside the view)."""
        if doc_id not in self._doc_ids:
            raise KeyError(doc_id)
        return self._parent.document_length(doc_id)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_ids

    # -- Term statistics -----------------------------------------------------------
    def term_frequency(self, term: str, doc_id: str) -> int:
        """Frequency of ``term`` in ``doc_id`` (0 if absent or outside the view)."""
        if doc_id not in self._doc_ids:
            return 0
        return self._parent.term_frequency(term, doc_id)

    def document_frequency(self, term: str) -> int:
        """Number of view documents containing ``term``."""
        return len(self._restricted(term))

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` within the view."""
        return self._restricted_stats(term)[1]

    def collection_probability(self, term: str) -> float:
        """Maximum-likelihood probability of ``term`` within the view."""
        if self._total_tokens == 0:
            return 0.0
        return self.collection_frequency(term) / self._total_tokens

    def postings(self, term: str) -> Dict[str, int]:
        """Return a copy of the view-restricted postings for ``term``."""
        return dict(self._restricted(term))

    def matching_documents(self, terms: Iterable[str],
                           require_all: bool = False) -> Set[str]:
        """View documents containing any (or all) of ``terms``."""
        term_list = list(terms)
        if not term_list:
            return set()
        sets = [set(self._restricted(term)) for term in term_list]
        result = set(sets[0])
        for other in sets[1:]:
            if require_all:
                result &= other
            else:
                result |= other
        return result

    def vocabulary(self) -> List[str]:
        """Terms occurring in the view's documents, sorted."""
        return sorted(term for term in self._parent.vocabulary()
                      if self._restricted_stats(term, cache_empty=False)[0])

    # -- Matrix view -------------------------------------------------------------
    def term_document_matrix(self) -> TermDocumentMatrix:
        """The (lazily built, cached) CSR snapshot of this view.

        Built by row-slicing the parent's snapshot to the view's documents
        and dropping terms that do not occur in them, so N entity views
        share one corpus-wide matrix build and each keeps only its own
        compact vocabulary.
        """
        if self._matrix is None:
            parent = self._parent.term_document_matrix()
            doc_ids = self.document_ids()
            rows = np.asarray([parent.doc_position(d) for d in doc_ids],
                              dtype=np.int64)
            if rows.size:
                restricted = parent.matrix[rows]
            else:
                restricted = sparse.csr_matrix((0, parent.num_terms))
            frequencies = np.asarray(restricted.sum(axis=0)).ravel()
            columns = np.flatnonzero(frequencies)
            matrix = restricted[:, columns].tocsr()
            terms = [parent.terms[c] for c in columns]
            doc_lengths = (parent.doc_lengths[rows] if rows.size
                           else np.zeros(0, dtype=np.float64))
            self._matrix = TermDocumentMatrix(
                doc_ids, terms, matrix, doc_lengths,
                frequencies[columns], self._total_tokens)
        return self._matrix
