"""Tests for the Dirichlet-smoothed query-likelihood language model."""

import math

import pytest

from repro.search.index import InvertedIndex
from repro.search.language_model import DirichletLanguageModel


@pytest.fixture()
def index():
    return InvertedIndex.from_documents({
        "research_page": ["parallel", "hpc", "research", "parallel", "systems"],
        "contact_page": ["email", "office", "phone", "contact"],
        "mixed_page": ["parallel", "office", "visit"],
    })


@pytest.fixture()
def model(index):
    return DirichletLanguageModel(index, mu=10.0)


def _score(model, query, doc_id):
    """The log query likelihood of ``query`` under ``doc_id``."""
    return dict(model.rank(query, require_match=False))[doc_id]


class TestTermProbability:
    def test_probabilities_form_distribution_over_vocabulary(self, model, index):
        for doc_id in index.document_ids():
            total = sum(math.exp(_score(model, [t], doc_id)) for t in index.vocabulary())
            assert total == pytest.approx(1.0, rel=1e-9)

    def test_term_present_scores_higher_than_absent(self, model):
        assert _score(model, ["parallel"], "research_page") > \
            _score(model, ["parallel"], "contact_page")

    def test_unseen_term_gets_small_probability(self, model):
        assert 0 < math.exp(_score(model, ["banana"], "research_page")) < 1e-6

    def test_invalid_mu(self, index):
        with pytest.raises(ValueError):
            DirichletLanguageModel(index, mu=0.0)


class TestScoring:
    def test_score_is_sum_of_log_probabilities(self, model):
        score = _score(model, ["parallel", "hpc"], "research_page")
        expected = (_score(model, ["parallel"], "research_page")
                    + _score(model, ["hpc"], "research_page"))
        assert score == pytest.approx(expected)

    def test_empty_query_scores_nothing(self, model):
        assert model.rank([], require_match=False) == []


class TestRanking:
    def test_most_relevant_document_first(self, model):
        ranked = model.rank(["parallel", "research"])
        assert ranked[0][0] == "research_page"

    def test_require_match_excludes_non_matching(self, model):
        ranked = model.rank(["email"])
        assert [doc for doc, _ in ranked] == ["contact_page"]

    def test_rank_without_match_requirement_includes_all(self, model, index):
        ranked = model.rank(["email"], require_match=False)
        assert len(ranked) == index.num_documents

    def test_top_k_truncation(self, model):
        ranked = model.rank(["parallel"], top_k=1)
        assert len(ranked) == 1

    def test_scores_descending(self, model):
        ranked = model.rank(["parallel", "office"])
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_empty_query_returns_nothing(self, model):
        assert model.rank([]) == []

