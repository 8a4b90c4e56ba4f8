"""Feature extraction for the aspect classifiers.

The classifiers operate on paragraphs represented as bags of words.  The
extractor optionally drops stopwords and rare terms, which both improves
accuracy and keeps the models small.

:meth:`BagOfWordsExtractor.transform` gives one paragraph's ``{term:
count}`` dict, in first-occurrence order — the order in which
:meth:`~repro.aspects.naive_bayes.MultinomialNaiveBayes.joint_log_likelihood`
adds the term contributions.  :meth:`BagOfWordsExtractor.transform_many`
stacks a training batch into a :class:`FeatureMatrix`, the CSR input of
:meth:`~repro.aspects.naive_bayes.MultinomialNaiveBayes.fit_matrix`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.corpus.tokenizer import DEFAULT_STOPWORDS


class FeatureMatrix:
    """Bag-of-words counts of many documents in CSR layout.

    ``terms`` is the (sorted) column vocabulary; ``indptr``/``indices``/
    ``data`` are the CSR arrays, each row's columns in its document's
    first-occurrence term order.  Counts are stored as ``float64`` (small
    integers, exact in a double) so the training kernel sums them without
    a cast.
    """

    __slots__ = ("terms", "indptr", "indices", "data")

    def __init__(self, terms: Sequence[str], indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray) -> None:
        self.terms = tuple(terms)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)

    @classmethod
    def from_dicts(cls, documents: Sequence[Dict[str, int]],
                   terms: Optional[Sequence[str]] = None) -> "FeatureMatrix":
        """Build a matrix from bag-of-words dicts (dict order preserved).

        ``terms`` defaults to the sorted union of all document terms.
        """
        if terms is None:
            vocabulary = set()
            for features in documents:
                vocabulary.update(features)
            terms = sorted(vocabulary)
        column = {term: i for i, term in enumerate(terms)}
        indptr = [0]
        indices: List[int] = []
        data: List[float] = []
        for features in documents:
            for term, count in features.items():
                indices.append(column[term])
                data.append(float(count))
            indptr.append(len(indices))
        return cls(terms, np.asarray(indptr, dtype=np.int64),
                   np.asarray(indices, dtype=np.int64),
                   np.asarray(data, dtype=np.float64))

    @property
    def num_documents(self) -> int:
        """Number of rows."""
        return len(self.indptr) - 1


class BagOfWordsExtractor:
    """Turns token sequences into bag-of-words count dictionaries."""

    def __init__(self, remove_stopwords: bool = True,
                 min_document_frequency: int = 1,
                 stopwords: Optional[Iterable[str]] = None) -> None:
        if min_document_frequency < 1:
            raise ValueError("min_document_frequency must be >= 1")
        self.remove_stopwords = remove_stopwords
        self.min_document_frequency = min_document_frequency
        self.stopwords = frozenset(stopwords) if stopwords is not None else DEFAULT_STOPWORDS
        self._vocabulary: Optional[frozenset] = None

    # -- Fitting -------------------------------------------------------------
    def fit(self, documents: Sequence[Sequence[str]]) -> "BagOfWordsExtractor":
        """Learn the feature vocabulary from training documents."""
        df: Counter = Counter()
        for tokens in documents:
            df.update({t for t in self._filter(tokens)})
        self._vocabulary = frozenset(
            term for term, count in df.items() if count >= self.min_document_frequency
        )
        return self

    @property
    def vocabulary(self) -> frozenset:
        """The learned feature vocabulary (raises if not fitted)."""
        if self._vocabulary is None:
            raise RuntimeError("extractor is not fitted; call fit() first")
        return self._vocabulary

    # -- Transformation ------------------------------------------------------------
    def transform(self, tokens: Sequence[str]) -> Dict[str, int]:
        """Return the bag-of-words features of one document."""
        filtered = self._filter(tokens)
        if self._vocabulary is not None:
            filtered = [t for t in filtered if t in self._vocabulary]
        return dict(Counter(filtered))

    def transform_many(self, documents: Sequence[Sequence[str]]) -> FeatureMatrix:
        """Transform a batch of documents into a :class:`FeatureMatrix`.

        Row ``i`` holds the counts :meth:`transform` returns for
        ``documents[i]``; the columns are the fitted vocabulary, sorted
        (or the batch's own terms when the extractor is unfitted).
        """
        terms = sorted(self._vocabulary) if self._vocabulary is not None else None
        return FeatureMatrix.from_dicts(
            [self.transform(tokens) for tokens in documents], terms=terms)

    # -- Internals -------------------------------------------------------------------
    def _filter(self, tokens: Sequence[str]) -> List[str]:
        if not self.remove_stopwords:
            return list(tokens)
        return [t for t in tokens if t not in self.stopwords]
