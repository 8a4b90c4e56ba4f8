"""Array classifier kernels vs the dict-based reference, property-tested.

The Naive Bayes stack promises *bit-identical* results to its dict-loop
reference (``tests/oracles.py::ReferenceNaiveBayes``): ``fit_matrix`` vs
``fit``, ``joint_log_likelihood`` vs the per-document scores, ``assess``
vs per-document ``predict`` / ``predict_proba``, ``score`` vs the
reference accuracy, and the suite's ``page_assessment`` vs
``reference_page_assessment``, for a freshly trained suite, a suite restored
from its state and a suite attached from the corpus store.  These tests pin
that contract over seeded random corpora — including the edge cases where an
array path most easily drifts: unseen terms, empty documents, single-class
training sets and exact score ties.
"""

import random

import pytest

from repro.aspects.classifier import AspectClassifierSuite
from repro.aspects.features import BagOfWordsExtractor, FeatureMatrix
from repro.aspects.naive_bayes import MultinomialNaiveBayes
from repro.corpus.document import Page
from repro.corpus.synthetic import CorpusConfig
from repro.store import CorpusStoreWriter, attach, release

from tests.oracles import ReferenceNaiveBayes, reference_page_assessment

VOCABULARY = [f"w{i}" for i in range(25)]
SEEDS = [0, 1, 2, 3, 4]


def _random_documents(rng: random.Random, num_docs: int,
                      vocabulary=VOCABULARY, allow_empty: bool = True) -> list:
    documents = []
    for _ in range(num_docs):
        length = rng.randint(0 if allow_empty else 1, 12)
        counts = {}
        for _ in range(length):
            term = rng.choice(vocabulary)
            counts[term] = counts.get(term, 0) + 1
        documents.append(counts)
    return documents


def _random_training_set(rng: random.Random, num_docs: int = 40):
    documents = _random_documents(rng, num_docs)
    labels = [rng.choice([0, 1, 2]) for _ in documents]
    return documents, labels


def _fit(documents, labels, alpha=1.0) -> MultinomialNaiveBayes:
    return MultinomialNaiveBayes(alpha=alpha).fit_matrix(
        FeatureMatrix.from_dicts(documents), labels)


def _reference_assessments(reference: ReferenceNaiveBayes, documents) -> list:
    """``assess``'s output computed document by document over dicts."""
    out = []
    for features in documents:
        posteriors = reference.predict_proba(features)
        out.append((reference.predict(features),
                    [posteriors[label] for label in reference.classes]))
    return out


def _assert_same_model(model: MultinomialNaiveBayes,
                       reference: ReferenceNaiveBayes) -> None:
    assert model.classes == reference.classes
    assert model._vocabulary_size == reference.vocabulary_size
    for c, label in enumerate(reference.classes):
        default = reference.default_log_prob[label]
        per_term = reference.feature_log_prob[label]
        assert model._prior_array[c] == reference.class_log_prior[label]
        assert model._log_prob_table[c, -1] == default
        assert [model._log_prob_table[c, j] for j in range(len(model._terms))] == \
            [per_term.get(term, default) for term in model._terms]


class TestFitMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fit_matrix_bitwise_equal_to_fit(self, seed):
        rng = random.Random(seed)
        documents, labels = _random_training_set(rng)
        reference = ReferenceNaiveBayes(alpha=0.5).fit(documents, labels)
        model = _fit(documents, labels, alpha=0.5)
        assert model._terms == tuple(sorted({t for d in documents for t in d}))
        _assert_same_model(model, reference)

    def test_unused_extractor_columns_never_enter_the_model(self):
        # The matrix carries the extractor's full vocabulary; documents use
        # only part of it.  The reference's vocabulary is the used part.
        documents = [{"a": 1}, {"b": 2}]
        matrix = FeatureMatrix.from_dicts(documents, terms=["a", "b", "c", "d"])
        model = MultinomialNaiveBayes().fit_matrix(matrix, [0, 1])
        assert model._terms == ("a", "b")
        assert model._vocabulary_size == 2
        _assert_same_model(model, ReferenceNaiveBayes().fit(documents, [0, 1]))

    def test_negative_counts_rejected(self):
        matrix = FeatureMatrix.from_dicts([{"a": -1}])
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit_matrix(matrix, [0])

    def test_length_mismatch_and_empty_rejected(self):
        matrix = FeatureMatrix.from_dicts([{"a": 1}])
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit_matrix(matrix, [0, 1])
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit_matrix(FeatureMatrix.from_dicts([]), [])


class TestBatchedInference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_joint_log_likelihood_matches_reference_bitwise(self, seed):
        rng = random.Random(30 + seed)
        documents, labels = _random_training_set(rng)
        model = _fit(documents, labels)
        reference = ReferenceNaiveBayes().fit(documents, labels)
        # Long and empty rows side by side exercise the padding.
        evaluation = _random_documents(rng, 25, vocabulary=VOCABULARY + ["u1"]) \
            + [{term: 1 for term in VOCABULARY + ["u2"]}, {}]
        scores = model.joint_log_likelihood(evaluation)
        assert scores.shape == (len(evaluation), len(model.classes))
        assert scores.tolist() == [
            [reference.joint_log_likelihood(features)[label]
             for label in reference.classes] for features in evaluation]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_assess_matches_reference_bitwise(self, seed):
        rng = random.Random(seed)
        documents, labels = _random_training_set(rng)
        model = _fit(documents, labels)
        reference = ReferenceNaiveBayes().fit(documents, labels)
        # Evaluation documents draw from a wider vocabulary, so some terms
        # are unseen and must hit the default column; some are empty.
        evaluation = _random_documents(
            rng, 25, vocabulary=VOCABULARY + ["u1", "u2", "u3"])
        assert model.assess(evaluation) == _reference_assessments(reference, evaluation)
        # The dict form of the array model scores identically too.
        assert model.assess(evaluation) == _reference_assessments(
            ReferenceNaiveBayes.from_model(model), evaluation)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_split_does_not_change_results(self, seed):
        rng = random.Random(10 + seed)
        documents, labels = _random_training_set(rng)
        model = _fit(documents, labels)
        evaluation = _random_documents(rng, 12)
        assert model.assess(evaluation) == \
            [assessment for features in evaluation
             for assessment in model.assess([features])]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_score_is_reference_accuracy(self, seed):
        rng = random.Random(20 + seed)
        documents, labels = _random_training_set(rng)
        model = _fit(documents, labels)
        reference = ReferenceNaiveBayes().fit(documents, labels)
        evaluation = _random_documents(rng, 30, vocabulary=VOCABULARY + ["u1"])
        truth = [rng.choice([0, 1, 2]) for _ in evaluation]
        expected = sum(reference.predict(f) == label
                       for f, label in zip(evaluation, truth)) / len(evaluation)
        assert model.score(evaluation, truth) == expected

    def test_empty_batch_returns_empty(self):
        model = _fit([{"a": 1}, {"b": 1}], [0, 1])
        assert model.joint_log_likelihood([]).shape == (0, 2)
        assert model.assess([]) == []

    def test_empty_document_scores_are_the_priors(self):
        documents, labels = [{"a": 1}, {"b": 1}, {"b": 2}], [0, 1, 1]
        model = _fit(documents, labels)
        reference = ReferenceNaiveBayes().fit(documents, labels)
        assert reference.joint_log_likelihood({}) == reference.class_log_prior
        assert model.assess([{}]) == _reference_assessments(reference, [{}])
        assert model.assess([{}])[0][0] == 1

    def test_single_class_training_set(self):
        documents = [{"a": 2}, {"a": 1, "b": 1}]
        model = _fit(documents, [1, 1])
        evaluation = [{"a": 1}, {}, {"c": 3}]
        assert model.assess(evaluation) == [(1, [1.0])] * 3
        assert model.assess(evaluation) == _reference_assessments(
            ReferenceNaiveBayes().fit(documents, [1, 1]), evaluation)

    def test_exact_tie_breaks_like_the_scalar_reference(self):
        # Identical per-class training data makes every score an exact tie;
        # the winner must be the first label in str-sorted order (here 10,
        # because "10" < "9"), on both paths.
        documents, labels = [{"a": 1}, {"a": 1}], [9, 10]
        model = _fit(documents, labels)
        reference = ReferenceNaiveBayes().fit(documents, labels)
        evaluation = [{"a": 2}, {}]
        assert [label for label, _ in model.assess(evaluation)] == [10, 10]
        assert model.assess(evaluation) == _reference_assessments(reference, evaluation)


class TestFeatureMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_keep_each_document_in_first_occurrence_order(self, seed):
        rng = random.Random(seed)
        documents = _random_documents(rng, 20)
        matrix = FeatureMatrix.from_dicts(documents)
        assert matrix.num_documents == len(documents)
        assert matrix.terms == tuple(sorted({t for d in documents for t in d}))
        for i, features in enumerate(documents):
            start, end = matrix.indptr[i], matrix.indptr[i + 1]
            assert [matrix.terms[c] for c in matrix.indices[start:end]] == list(features)
            assert matrix.data[start:end].tolist() == list(features.values())

    def test_transform_many_matches_transform(self):
        rng = random.Random(3)
        train = [[rng.choice(VOCABULARY) for _ in range(rng.randint(1, 10))]
                 for _ in range(15)]
        extractor = BagOfWordsExtractor(min_document_frequency=2).fit(train)
        documents = train + [["unseen-token"], []]
        matrix = extractor.transform_many(documents)
        expected = FeatureMatrix.from_dicts(
            [extractor.transform(tokens) for tokens in documents],
            terms=sorted(extractor.vocabulary))
        assert matrix.terms == expected.terms
        for part in ("indptr", "indices", "data"):
            assert getattr(matrix, part).tolist() == getattr(expected, part).tolist()


class TestSuiteBatchedScoring:
    @pytest.fixture(scope="class")
    def suite(self, researcher_corpus):
        return AspectClassifierSuite.train_on_corpus(researcher_corpus, seed=3)

    def test_page_assessment_matches_scalar_pair(self, suite, researcher_corpus):
        empty = Page(page_id="empty", entity_id="eX", paragraphs=())
        for page in list(researcher_corpus.iter_pages()) + [empty]:
            for aspect in researcher_corpus.aspects:
                assessment = suite.page_assessment(page, aspect)
                assert assessment == reference_page_assessment(suite, page, aspect)
                assert type(assessment[0]) is int and type(assessment[1]) is float
        assert suite.page_assessment(empty, "RESEARCH") == (0, 0.0)

    def test_state_round_trip_preserves_predictions(self, suite, researcher_corpus):
        meta, arrays = suite.to_state()
        restored = AspectClassifierSuite.from_state(meta, arrays)
        for page in list(researcher_corpus.iter_pages())[:10]:
            for aspect in researcher_corpus.aspects:
                assert restored.page_assessment(page, aspect) == \
                    suite.page_assessment(page, aspect)
        assert [record.accuracy for record in restored.accuracy_report()] == \
            [record.accuracy for record in suite.accuracy_report()]

    def test_store_attached_suite_matches_reference(self, suite, researcher_corpus):
        config = CorpusConfig(domain="researcher", num_entities=16,
                              pages_per_entity=10, seed=11)
        writer = CorpusStoreWriter(config, researcher_corpus.entities)
        writer.add_pages(sorted(researcher_corpus.iter_pages(),
                                key=lambda page: page.page_id))
        writer.add_classifier_suite("3", suite)
        handle = writer.publish()
        try:
            attached = attach(handle).classifier_suite("3")
            for page in list(researcher_corpus.iter_pages())[:40]:
                for aspect in researcher_corpus.aspects:
                    assert attached.page_assessment(page, aspect) == \
                        reference_page_assessment(attached, page, aspect) == \
                        suite.page_assessment(page, aspect)
        finally:
            release(handle)
