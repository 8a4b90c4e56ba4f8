"""Multinomial Naive Bayes classifier (from scratch).

The paper trains a CRF classifier per aspect whose output is treated as
ground truth (Fig. 9 accuracies of 0.85-0.99).  A multinomial Naive Bayes
over bag-of-words features reaches a comparable accuracy band on the
synthetic corpus while keeping the reproduction dependency-free, and — as in
the paper — its role is only to materialise the relevance function ``Y``.

A fitted model is its arrays: the class labels, the sorted term table, a
class log-prior vector and a dense ``(n_classes, n_terms + 1)``
log-probability table whose last column is the unseen-term default (bitwise
equal to a smoothed zero-count entry, since ``0 + alpha == alpha``).
:meth:`MultinomialNaiveBayes.fit_matrix` trains them from a
:class:`~repro.aspects.features.FeatureMatrix` (logarithms through
:func:`repro.utils.vectorize.exact_log`, i.e. scalar libm), and
:meth:`~MultinomialNaiveBayes.from_arrays` restores them, e.g. as zero-copy
views over a shared corpus store.
:meth:`~MultinomialNaiveBayes.joint_log_likelihood` is the one scoring
path: every label and posterior, of a page assessment
(:meth:`~MultinomialNaiveBayes.assess`) or of the Fig. 9 holdout
(:meth:`~MultinomialNaiveBayes.score`), comes from its class scores.  Its
dict-based reference is ``tests/oracles.py::ReferenceNaiveBayes``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.aspects.features import FeatureMatrix
from repro.utils.vectorize import exact_log


class MultinomialNaiveBayes:
    """Multinomial Naive Bayes with Laplace (add-``alpha``) smoothing."""

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError("the smoothing parameter alpha must be positive")
        self.alpha = float(alpha)
        self._classes: List[Hashable] = []
        self._vocabulary_size = 0
        # Table column j is the log probability of _terms[j]; the last
        # column is the unseen-term default.
        self._terms: Tuple[str, ...] = ()
        self._term_columns: Mapping[str, int] = {}
        self._prior_array = np.zeros(0, dtype=np.float64)
        self._log_prob_table = np.zeros((0, 1), dtype=np.float64)

    # -- Training ------------------------------------------------------------
    def fit_matrix(self, matrix: FeatureMatrix,
                   labels: Sequence[Hashable]) -> "MultinomialNaiveBayes":
        """Fit the model on the documents of ``matrix`` and their labels.

        Per-class term counts are exact (integer-valued float sums via
        ``np.bincount``); the vocabulary is the set of columns some
        document uses, so unused extractor columns never enter the model.
        """
        n_docs = matrix.num_documents
        if n_docs != len(labels):
            raise ValueError("documents and labels must have the same length")
        if n_docs == 0:
            raise ValueError("cannot fit on an empty training set")
        if matrix.data.size and float(matrix.data.min()) < 0:
            raise ValueError("feature counts must be non-negative")

        class_counts: Counter = Counter(labels)
        classes = sorted(class_counts, key=str)
        total = len(labels)

        used = np.unique(matrix.indices)
        self._vocabulary_size = max(int(used.size), 1)
        terms = [matrix.terms[int(c)] for c in used]

        class_index = {label: i for i, label in enumerate(classes)}
        lengths = np.diff(matrix.indptr)
        row_classes = np.fromiter((class_index[label] for label in labels),
                                  dtype=np.int64, count=n_docs)
        entry_classes = np.repeat(row_classes, lengths)

        width = len(matrix.terms)
        table = np.empty((len(classes), len(terms) + 1), dtype=np.float64)
        priors = np.empty(len(classes), dtype=np.float64)
        for c, label in enumerate(classes):
            mask = entry_classes == c
            counts = np.bincount(matrix.indices[mask],
                                 weights=matrix.data[mask], minlength=width)
            counts = counts[used]
            denominator = float(counts.sum()) + self.alpha * self._vocabulary_size
            table[c, :-1] = exact_log((counts + self.alpha) / denominator)
            table[c, -1] = math.log(self.alpha / denominator)
            priors[c] = math.log(class_counts[label] / total)
        self._set_arrays(classes, terms, priors, table)
        return self

    @classmethod
    def from_arrays(cls, alpha: float, classes: Sequence[Hashable],
                    vocabulary_size: int, terms: Sequence[str],
                    class_log_prior: np.ndarray,
                    log_prob_table: np.ndarray) -> "MultinomialNaiveBayes":
        """Restore a fitted model from its arrays.

        Accepts read-only views (e.g. ``np.frombuffer`` over a shared
        store segment); nothing is copied.
        """
        model = cls(alpha=alpha)
        model._vocabulary_size = int(vocabulary_size)
        model._set_arrays(classes, terms,
                          np.asarray(class_log_prior, dtype=np.float64),
                          np.asarray(log_prob_table, dtype=np.float64))
        return model

    def _set_arrays(self, classes: Sequence[Hashable], terms: Sequence[str],
                    priors: np.ndarray, table: np.ndarray) -> None:
        self._classes = list(classes)
        self._terms = tuple(terms)
        self._term_columns = {term: j for j, term in enumerate(self._terms)}
        self._prior_array = priors
        self._log_prob_table = table

    @property
    def classes(self) -> List[Hashable]:
        """The class labels seen during training (str-sorted)."""
        return list(self._classes)

    def _check_fitted(self) -> None:
        if not self._classes:
            raise RuntimeError("model is not fitted; call fit_matrix() first")

    # -- Inference ------------------------------------------------------------------
    def joint_log_likelihood(self, documents: Sequence[Mapping[str, int]]) -> np.ndarray:
        """Class scores of each document: a ``documents x classes`` array.

        Entry ``(i, c)`` is the log prior of ``classes[c]`` plus ``count *
        log p(term | class)`` over document ``i``'s terms, added one term at
        a time in the mapping's (first-occurrence) order; an unseen term
        reads the default column.  Each document is one padded row — its
        prior, then its terms' contributions — summed left to right by
        ``np.add.accumulate``.  The ``+0.0`` padding after a short row's
        last term changes no sum: a running sum that starts at a log prior
        (never ``-0.0``) is never ``-0.0`` itself.
        """
        self._check_fitted()
        default = len(self._terms)
        lengths = np.fromiter(map(len, documents), dtype=np.int64, count=len(documents))
        columns = [self._term_columns.get(term, default)
                   for features in documents for term in features]
        counts = np.fromiter(chain.from_iterable(features.values() for features in documents),
                             dtype=np.float64, count=len(columns))
        padded = np.zeros((len(documents), len(self._classes),
                           int(lengths.max(initial=0)) + 1))
        padded[:, :, 0] = self._prior_array
        rows = np.repeat(np.arange(len(documents)), lengths)
        starts = np.cumsum(lengths) - lengths
        positions = np.arange(1, len(columns) + 1) - np.repeat(starts, lengths)
        padded[rows, :, positions] = self._log_prob_table.T[columns] * counts[:, None]
        return np.add.accumulate(padded, axis=2)[:, :, -1]

    def assess(self, documents: Sequence[Mapping[str, int]]
               ) -> List[Tuple[Hashable, List[float]]]:
        """Most probable class and class posteriors of each document.

        From :meth:`joint_log_likelihood`: the label is the first class, in
        :attr:`classes` order, with the greatest score; the posteriors,
        aligned with :attr:`classes`, are ``exp(score - max)`` over their
        left-to-right sum.
        """
        assessments = []
        for scores in self.joint_log_likelihood(documents).tolist():
            best = max(scores)
            exps = [math.exp(score - best) for score in scores]
            total = 0.0
            for value in exps:
                total += value
            assessments.append((self._classes[scores.index(best)],
                                [value / total for value in exps]))
        return assessments

    def score(self, documents: Sequence[Mapping[str, int]],
              labels: Sequence[Hashable]) -> float:
        """Accuracy over a labelled evaluation set; a document's label is
        its first highest-scoring class, as in :meth:`assess`."""
        if len(documents) != len(labels):
            raise ValueError("documents and labels must have the same length")
        if not documents:
            return 0.0
        winners = np.argmax(self.joint_log_likelihood(documents), axis=1).tolist()
        correct = sum(1 for winner, label in zip(winners, labels)
                      if self._classes[winner] == label)
        return correct / len(documents)
