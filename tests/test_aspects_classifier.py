"""Tests for the per-aspect classifier suite (the Fig. 9 infrastructure)."""

import pytest

from tests.helpers import make_page

from repro.aspects.classifier import AspectClassifierSuite


@pytest.fixture(scope="module")
def trained_suite(researcher_corpus):
    return AspectClassifierSuite.train_on_corpus(researcher_corpus, seed=3)


class TestTraining:
    def test_requires_aspects(self):
        with pytest.raises(ValueError):
            AspectClassifierSuite([])

    def test_requires_paragraphs(self):
        with pytest.raises(ValueError):
            AspectClassifierSuite(["RESEARCH"]).fit([])

    def test_invalid_holdout_fraction(self, researcher_corpus):
        suite = AspectClassifierSuite(researcher_corpus.aspects)
        with pytest.raises(ValueError):
            suite.fit(list(researcher_corpus.iter_paragraphs()), holdout_fraction=1.0)

    def test_degenerate_holdout_leaves_no_training_data(self, researcher_corpus):
        # Regression: a fraction whose product rounds up to the full corpus
        # used to fall back to training on the holdout itself, silently
        # leaking the Fig. 9 evaluation set into the models.
        class FullHoldout(float):
            def __rmul__(self, other):
                return float(other)

        suite = AspectClassifierSuite(researcher_corpus.aspects)
        paragraphs = list(researcher_corpus.iter_paragraphs())[:8]
        with pytest.raises(ValueError, match="leaving no training data"):
            suite.fit(paragraphs, holdout_fraction=FullHoldout(0.5))

    def test_unfitted_suite_raises(self, researcher_corpus):
        suite = AspectClassifierSuite(researcher_corpus.aspects)
        page = next(researcher_corpus.iter_pages())
        with pytest.raises(RuntimeError):
            suite.page_assessment(page, "RESEARCH")


class TestAccuracy:
    def test_report_covers_every_aspect(self, trained_suite, researcher_corpus):
        report = trained_suite.accuracy_report()
        assert [row.aspect for row in report] == researcher_corpus.aspects

    def test_accuracy_in_papers_band(self, trained_suite, researcher_corpus):
        # Paper Fig. 9: classifier accuracy between 0.85 and 0.99.
        for aspect in researcher_corpus.aspects:
            assert trained_suite.accuracy_of(aspect) >= 0.80

    def test_frequency_matches_corpus(self, trained_suite, researcher_corpus):
        for row in trained_suite.accuracy_report():
            assert row.paragraph_frequency == \
                researcher_corpus.aspect_paragraph_count(row.aspect)


class TestPrediction:
    def test_page_assessment_is_binary_label_and_probability(self, trained_suite,
                                                             researcher_corpus):
        page = next(researcher_corpus.iter_pages())
        label, probability = trained_suite.page_assessment(page, "RESEARCH")
        assert label in (0, 1)
        assert 0.0 <= probability <= 1.0

    def test_page_relevant_if_any_paragraph_relevant(self, trained_suite):
        page = make_page("pX", "eX", [
            (["conducts", "research", "parallel_computing", "papers", "published",
              "research", "projects"], "RESEARCH"),
            (["visit", "siebel", "center"], None),
        ])
        assert trained_suite.page_assessment(page, "RESEARCH")[0] == 1

    def test_page_probability_bounds(self, trained_suite, researcher_corpus):
        for page in list(researcher_corpus.iter_pages())[:20]:
            _, probability = trained_suite.page_assessment(page, "RESEARCH")
            assert 0.0 <= probability <= 1.0

    def test_empty_page_probability_zero(self, trained_suite):
        from repro.corpus.document import Page
        empty = Page(page_id="empty", entity_id="eX", paragraphs=())
        assert trained_suite.page_assessment(empty, "RESEARCH") == (0, 0.0)

    def test_page_level_agreement_with_ground_truth(self, trained_suite, researcher_corpus):
        # The classifier output is treated as ground truth by the paper, so
        # page-level agreement on the synthetic corpus should be high.
        agreements = 0
        total = 0
        for page in list(researcher_corpus.iter_pages())[:100]:
            for aspect in ("RESEARCH", "CONTACT"):
                total += 1
                predicted, _ = trained_suite.page_assessment(page, aspect)
                actual = int(page.has_aspect(aspect))
                agreements += int(predicted == actual)
        assert agreements / total >= 0.75
