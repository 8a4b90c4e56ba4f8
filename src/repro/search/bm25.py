"""Okapi BM25 ranking — an alternative ranker used for ablation.

The paper uses a Dirichlet-smoothed language model as its offline search
engine; BM25 is provided so that the sensitivity of L2Q to the underlying
retrieval model can be measured (``benchmarks/test_ablation_ranker.py``).

Like the language model, ranking runs through one vectorized kernel over
the index's CSR term–document matrix: :meth:`BM25Ranker.rank_many` scores
each (term, document) pair of a query batch once, and
:meth:`BM25Ranker.rank` is a batch of one.  The kernel matches the scalar
per-document score of ``tests/oracles.py`` bit for bit (per-term
contributions are accumulated in query order; IDF values are computed with
scalar ``math.log``).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.search.index import InvertedIndex, QueryBatch


class BM25Ranker:
    """Okapi BM25 with the standard ``k1``/``b`` parameterisation."""

    def __init__(self, index: InvertedIndex, k1: float = 1.2, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self.index = index
        self.k1 = float(k1)
        self.b = float(b)

    def rank(self, query: Sequence[str], top_k: int = 0,
             require_match: bool = True) -> List[Tuple[str, float]]:
        """Rank documents for ``query`` (same contract as the language
        model): ``rank_many([query], ...)[0]``."""
        return self.rank_many([query], top_k, require_match)[0]

    def rank_many(self, queries: Sequence[Sequence[str]], top_k: int = 0,
                  require_match: bool = True) -> List[List[Tuple[str, float]]]:
        """Rank each of ``queries`` (the contract of :meth:`rank`).

        Each term's Robertson-Sparck-Jones IDF, ``log((n - df + 0.5) /
        (df + 0.5) + 1)`` floored at 0, is computed once with scalar
        ``math.log``, and each (term, document) contribution
        ``idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))``
        once; each query sums its terms' contributions from zero in query
        order.  Zero-tf contributions are masked to an exact ``0.0`` (a
        term the document lacks adds nothing; the mask also covers the zero
        denominator of ``b = 1`` and an empty document).
        """
        matrix = self.index.term_document_matrix()
        batch = QueryBatch(matrix, queries)
        num_docs = matrix.num_documents
        avgdl = (matrix.total_tokens / num_docs if num_docs else 0.0) or 1.0
        document_frequencies = np.diff(matrix.matrix_csc.indptr)
        idf = np.zeros(len(batch.terms))
        for position, column in enumerate(batch.columns.tolist()):
            df = int(document_frequencies[column]) if column >= 0 else 0
            if df:
                idf[position] = max(0.0, math.log((num_docs - df + 0.5) / (df + 0.5)
                                                  + 1.0))
        tf = batch.term_frequencies
        denominator = tf + self.k1 * (1.0 - self.b + self.b * matrix.doc_lengths / avgdl)
        with np.errstate(divide="ignore", invalid="ignore"):
            contributions = idf[:, None] * tf * (self.k1 + 1.0) / denominator
        return batch.ranked(batch.totals(np.where(tf > 0.0, contributions, 0.0)),
                            top_k, require_match)
