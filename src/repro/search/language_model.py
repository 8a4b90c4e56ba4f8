"""Query-likelihood language model with Dirichlet smoothing.

This is the retrieval model the paper itself uses as its offline "search
engine": *"we used a language model with Dirichlet smoothing [29] as the
search engine"* (Sect. VI-A).  The score of a document ``d`` for a query
``q`` is::

    score(q, d) = sum_{w in q} log( (tf(w, d) + mu * p(w | C)) / (|d| + mu) )

where ``p(w | C)`` is the collection language model and ``mu`` the Dirichlet
prior.  Unseen query terms (zero collection probability) are smoothed with a
small epsilon so the score remains finite.

Ranking runs through one vectorized kernel over the index's CSR
term–document matrix (:meth:`repro.search.index.InvertedIndex.term_document_matrix`):
:meth:`~DirichletLanguageModel.rank_many` computes each (term, document)
contribution of a query batch once and sums them per query, and
:meth:`~DirichletLanguageModel.rank` is a batch of one.  The kernel
reproduces the scalar per-document score of ``tests/oracles.py`` bit for
bit (term contributions are accumulated in query order and logarithms are
taken with :func:`repro.utils.vectorize.exact_log`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.search.index import InvertedIndex, QueryBatch
from repro.utils.vectorize import exact_log

_UNSEEN_EPSILON = 1e-9


class DirichletLanguageModel:
    """Ranks documents of an :class:`InvertedIndex` by query likelihood."""

    def __init__(self, index: InvertedIndex, mu: float = 100.0) -> None:
        if mu <= 0:
            raise ValueError("the Dirichlet prior mu must be positive")
        self.index = index
        self.mu = float(mu)

    def rank(self, query: Sequence[str], top_k: int = 0,
             require_match: bool = True) -> List[Tuple[str, float]]:
        """Rank documents for ``query``: ``rank_many([query], ...)[0]``.

        Parameters
        ----------
        query:
            Query tokens.
        top_k:
            If positive, truncate the ranking to the top ``top_k`` documents.
        require_match:
            If True (the default), only documents containing at least one
            query term are returned — a pure smoothing score over unrelated
            documents is not a retrieval.
        """
        return self.rank_many([query], top_k, require_match)[0]

    def rank_many(self, queries: Sequence[Sequence[str]], top_k: int = 0,
                  require_match: bool = True) -> List[List[Tuple[str, float]]]:
        """Rank each of ``queries`` (the contract of :meth:`rank`).

        Each (term, document) contribution of the batch is computed once as
        ``exact_log((tf + mu * p(w|C)) / (|d| + mu))``, an unseen term's
        ``p(w|C)`` raised to a small epsilon, and each query sums its
        terms' contributions in query order.  Documents are ordered by
        descending score, ties by doc id.
        """
        matrix = self.index.term_document_matrix()
        batch = QueryBatch(matrix, queries)
        collection_p = np.zeros(len(batch.terms))
        known = batch.columns >= 0
        if matrix.total_tokens:
            collection_p[known] = (matrix.collection_frequencies[batch.columns[known]]
                                   / matrix.total_tokens)
        collection_p[collection_p <= 0.0] = _UNSEEN_EPSILON
        probabilities = ((batch.term_frequencies + self.mu * collection_p[:, None])
                         / (matrix.doc_lengths + self.mu))
        return batch.ranked(batch.totals(exact_log(probabilities)),
                            top_k, require_match)
