"""Per-aspect paragraph classifiers (the paper's Fig. 9 infrastructure).

The paper trains one classifier per target aspect ``Y`` that labels each
paragraph as relevant or not; page-level relevance follows from the
paragraph labels.  This module provides :class:`AspectClassifierSuite`,
which trains one binary Naive-Bayes classifier per aspect on labelled
paragraphs of the domain corpus and reports per-aspect accuracy on a held
out split — the reproduction of Fig. 9.

Training runs on :meth:`~repro.aspects.naive_bayes.MultinomialNaiveBayes.
fit_matrix`; every paragraph label and posterior — of a page assessment and
of the Fig. 9 holdout alike — comes from the class scores of
:meth:`~repro.aspects.naive_bayes.MultinomialNaiveBayes.joint_log_likelihood`.
A fitted
suite also serialises to raw arrays (:meth:`AspectClassifierSuite.to_state`
/ :meth:`~AspectClassifierSuite.from_state`): one shared vocabulary table
plus a per-aspect class-prior vector and log-probability matrix — the
layout the shared corpus store publishes so distributed workers can attach
trained suites zero-copy instead of retraining.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aspects.features import BagOfWordsExtractor
from repro.aspects.naive_bayes import MultinomialNaiveBayes
from repro.corpus.corpus import Corpus
from repro.corpus.document import Page, Paragraph
from repro.utils.rng import SeededRandom

RELEVANT = 1
IRRELEVANT = 0


@dataclass(frozen=True)
class AspectAccuracy:
    """Evaluation record for one aspect classifier (one Fig. 9 row)."""

    aspect: str
    paragraph_frequency: int
    accuracy: float
    num_train: int
    num_test: int


class AspectClassifierSuite:
    """One binary paragraph classifier per target aspect."""

    def __init__(self, aspects: Sequence[str], alpha: float = 0.5,
                 min_document_frequency: int = 1) -> None:
        if not aspects:
            raise ValueError("at least one aspect is required")
        self.aspects = list(aspects)
        self.alpha = alpha
        self.min_document_frequency = min_document_frequency
        self._extractor = BagOfWordsExtractor(min_document_frequency=min_document_frequency)
        self._models: Dict[str, MultinomialNaiveBayes] = {}
        self._accuracies: Dict[str, AspectAccuracy] = {}

    # -- Training ------------------------------------------------------------
    def fit(self, paragraphs: Sequence[Paragraph], holdout_fraction: float = 0.25,
            seed: int = 13) -> "AspectClassifierSuite":
        """Train all per-aspect classifiers from labelled paragraphs.

        Parameters
        ----------
        paragraphs:
            Labelled paragraphs (their ``aspect`` field is the ground truth).
        holdout_fraction:
            Fraction of paragraphs held out to measure the Fig. 9 accuracy.
        seed:
            Seed for the train/holdout shuffle.
        """
        if not paragraphs:
            raise ValueError("cannot fit on an empty paragraph collection")
        if not 0.0 <= holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")

        rng = SeededRandom(seed).spawn("aspect-classifier")
        shuffled = rng.shuffled(list(paragraphs))
        holdout_size = int(len(shuffled) * holdout_fraction)
        holdout = shuffled[:holdout_size]
        train = shuffled[holdout_size:]
        if not train:
            # Training on the holdout itself would leak the Fig. 9
            # evaluation set into the models, so refuse loudly instead.
            raise ValueError(
                f"holdout_fraction={holdout_fraction!r} holds out all "
                f"{len(shuffled)} paragraphs, leaving no training data")

        train_tokens = [p.tokens for p in train]
        self._extractor.fit(train_tokens)
        train_features = self._extractor.transform_many(train_tokens)
        # Without a holdout, the accuracy is measured on the training set.
        evaluated = holdout if holdout else train
        evaluated_features = [self._extractor.transform(p.tokens) for p in evaluated]

        for aspect in self.aspects:
            labels = [RELEVANT if p.aspect == aspect else IRRELEVANT for p in train]
            # A degenerate training set (the aspect never or always occurs)
            # yields a single-class model that simply repeats its class.
            model = MultinomialNaiveBayes(alpha=self.alpha)
            model.fit_matrix(train_features, labels)
            self._models[aspect] = model

            frequency = sum(1 for p in paragraphs if p.aspect == aspect)
            evaluated_labels = [RELEVANT if p.aspect == aspect else IRRELEVANT
                                for p in evaluated]
            accuracy = model.score(evaluated_features, evaluated_labels)
            self._accuracies[aspect] = AspectAccuracy(
                aspect=aspect,
                paragraph_frequency=frequency,
                accuracy=accuracy,
                num_train=len(train),
                num_test=len(holdout),
            )
        return self

    @classmethod
    def train_on_corpus(cls, corpus: Corpus, holdout_fraction: float = 0.25,
                        seed: int = 13, **kwargs) -> "AspectClassifierSuite":
        """Train a suite on every paragraph of ``corpus``."""
        suite = cls(corpus.aspects, **kwargs)
        return suite.fit(list(corpus.iter_paragraphs()),
                         holdout_fraction=holdout_fraction, seed=seed)

    def _check_fitted(self) -> None:
        if not self._models:
            raise RuntimeError("classifier suite is not fitted; call fit() first")

    # -- Serialisation ---------------------------------------------------------------
    def to_state(self) -> Tuple[Dict[str, Any], Dict[str, Dict[str, np.ndarray]]]:
        """Raw-array state: ``(metadata, {aspect: {prior, logprob}})``.

        The metadata is a small picklable dict (config, shared vocabulary
        table, per-aspect classes and accuracy records); the arrays are the
        per-aspect class-prior vectors and log-probability matrices, ready
        to be published as zero-copy store sections.
        """
        self._check_fitted()
        terms = self._models[self.aspects[0]]._terms
        meta: Dict[str, Any] = {
            "aspects": list(self.aspects),
            "alpha": self.alpha,
            "min_document_frequency": self.min_document_frequency,
            "extractor": {
                "remove_stopwords": self._extractor.remove_stopwords,
                "stopwords": sorted(self._extractor.stopwords),
                "vocabulary": sorted(self._extractor._vocabulary or ()),
            },
            "terms": list(terms),
            "models": {},
            "accuracies": {
                aspect: {
                    "aspect": record.aspect,
                    "paragraph_frequency": record.paragraph_frequency,
                    "accuracy": record.accuracy,
                    "num_train": record.num_train,
                    "num_test": record.num_test,
                }
                for aspect, record in self._accuracies.items()
            },
        }
        arrays: Dict[str, Dict[str, np.ndarray]] = {}
        for aspect in self.aspects:
            model = self._models[aspect]
            if model._terms != terms:
                raise ValueError(
                    f"aspect {aspect!r} has a diverging vocabulary table; "
                    "suite models must share one")
            meta["models"][aspect] = {
                "classes": list(model._classes),
                "vocabulary_size": model._vocabulary_size,
            }
            arrays[aspect] = {
                "prior": model._prior_array,
                "logprob": model._log_prob_table,
            }
        return meta, arrays

    @classmethod
    def from_state(cls, meta: Mapping[str, Any],
                   arrays: Mapping[str, Mapping[str, np.ndarray]]) -> "AspectClassifierSuite":
        """Rebuild a fitted suite from :meth:`to_state` output.

        The arrays may be read-only ``np.frombuffer`` views over a shared
        store segment — nothing is copied, so attaching a published suite
        costs only the metadata unpickle.
        """
        suite = cls(meta["aspects"], alpha=meta["alpha"],
                    min_document_frequency=meta["min_document_frequency"])
        extractor_meta = meta["extractor"]
        suite._extractor = BagOfWordsExtractor(
            remove_stopwords=extractor_meta["remove_stopwords"],
            min_document_frequency=meta["min_document_frequency"],
            stopwords=extractor_meta["stopwords"])
        suite._extractor._vocabulary = frozenset(extractor_meta["vocabulary"])
        terms = tuple(meta["terms"])
        for aspect in suite.aspects:
            model_meta = meta["models"][aspect]
            suite._models[aspect] = MultinomialNaiveBayes.from_arrays(
                alpha=meta["alpha"],
                classes=model_meta["classes"],
                vocabulary_size=model_meta["vocabulary_size"],
                terms=terms,
                class_log_prior=arrays[aspect]["prior"],
                log_prob_table=arrays[aspect]["logprob"])
        for aspect, record in meta["accuracies"].items():
            suite._accuracies[aspect] = AspectAccuracy(**record)
        return suite

    # -- Prediction ------------------------------------------------------------------
    def page_assessment(self, page: Page, aspect: str) -> Tuple[int, float]:
        """Page label and relevance probability for ``aspect``.

        A page is relevant if any paragraph's most probable class is
        :data:`RELEVANT`; its probability is the greatest paragraph
        posterior of :data:`RELEVANT` (0.0 for a page without paragraphs,
        or for a model that never saw the class).  The page's paragraphs are
        one :meth:`~repro.aspects.naive_bayes.MultinomialNaiveBayes.assess`.
        """
        self._check_fitted()
        model = self._models[aspect]
        classes = model.classes
        relevant = classes.index(RELEVANT) if RELEVANT in classes else None
        label, probability = 0, 0.0
        for predicted, posteriors in model.assess(
                [self._extractor.transform(p.tokens) for p in page.paragraphs]):
            if predicted == RELEVANT:
                label = 1
            if relevant is not None:
                probability = max(probability, posteriors[relevant])
        return label, probability

    # -- Reporting --------------------------------------------------------------------
    def accuracy_report(self) -> List[AspectAccuracy]:
        """Per-aspect accuracy records (the Fig. 9 table rows)."""
        self._check_fitted()
        return [self._accuracies[aspect] for aspect in self.aspects]

    def accuracy_of(self, aspect: str) -> float:
        """Held-out accuracy of one aspect classifier."""
        self._check_fitted()
        return self._accuracies[aspect].accuracy
