"""Tests for the multinomial Naive Bayes classifier."""

import pytest

from repro.aspects.features import FeatureMatrix
from repro.aspects.naive_bayes import MultinomialNaiveBayes


def _toy_training_set():
    documents = [
        {"award": 2, "received": 1},
        {"award": 1, "winner": 1},
        {"prize": 1, "award": 1},
        {"research": 2, "parallel": 1},
        {"research": 1, "papers": 2},
        {"parallel": 1, "systems": 1},
    ]
    labels = [1, 1, 1, 0, 0, 0]
    return documents, labels


def _fit(documents, labels, **kwargs):
    return MultinomialNaiveBayes(**kwargs).fit_matrix(
        FeatureMatrix.from_dicts(documents), labels)


class TestFit:
    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            _fit([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _fit([{"a": 1}], [0, 1])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            _fit([{"a": -1}], [0])

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes(alpha=0.0)

    def test_classes_recorded(self):
        docs, labels = _toy_training_set()
        model = _fit(docs, labels)
        assert set(model.classes) == {0, 1}


class TestPredict:
    def setup_method(self):
        docs, labels = _toy_training_set()
        self.model = _fit(docs, labels)

    def test_predicts_obvious_classes(self):
        [(award, _), (research, _)] = self.model.assess(
            [{"award": 3}, {"research": 3, "parallel": 1}])
        assert (award, research) == (1, 0)

    def test_predict_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MultinomialNaiveBayes().assess([{"a": 1}])

    def test_predict_many(self):
        assert [label for label, _ in self.model.assess(
            [{"award": 1}, {"research": 1}])] == [1, 0]
        assert self.model.assess([]) == []

    def test_predict_proba_normalised(self):
        [(_, posteriors)] = self.model.assess([{"award": 1, "research": 1}])
        assert sum(posteriors) == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 for p in posteriors)

    def test_unknown_features_fall_back_to_prior(self):
        [(_, posteriors)] = self.model.assess([{"zzz": 1}])
        # Balanced training set: unknown evidence gives roughly the prior.
        assert posteriors[self.model.classes.index(0)] == pytest.approx(0.5, abs=0.1)

    def test_score_accuracy(self):
        docs, labels = _toy_training_set()
        assert self.model.score(docs, labels) == 1.0

    def test_score_empty(self):
        assert self.model.score([], []) == 0.0

    def test_score_length_mismatch(self):
        with pytest.raises(ValueError):
            self.model.score([{"a": 1}], [])


class TestSingleClass:
    def test_single_class_training_predicts_that_class(self):
        model = _fit([{"a": 1}, {"b": 1}], [1, 1])
        assert model.assess([{"c": 1}]) == [(1, [1.0])]
