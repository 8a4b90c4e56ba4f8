"""Tests for the BM25 ranker."""

import pytest

from repro.search.bm25 import BM25Ranker
from repro.search.index import InvertedIndex


@pytest.fixture()
def index():
    return InvertedIndex.from_documents({
        "d1": ["parallel", "hpc", "parallel", "systems"],
        "d2": ["parallel", "office"],
        "d3": ["email", "contact", "office", "phone"],
    })


@pytest.fixture()
def ranker(index):
    return BM25Ranker(index)


class TestParameters:
    def test_invalid_k1(self, index):
        with pytest.raises(ValueError):
            BM25Ranker(index, k1=-1.0)

    def test_invalid_b(self, index):
        with pytest.raises(ValueError):
            BM25Ranker(index, b=1.5)


def _scores(ranker, query):
    """``{doc_id: score}`` of every document for ``query``."""
    return dict(ranker.rank(query, require_match=False))


class TestScoring:
    def test_idf_zero_for_unknown_term(self, ranker):
        assert set(_scores(ranker, ["banana"]).values()) == {0.0}

    def test_idf_decreases_with_document_frequency(self, ranker):
        # In d3 "email" (df 1) and "office" (df 2) both occur once, so only
        # their IDFs differ.
        assert _scores(ranker, ["email"])["d3"] > _scores(ranker, ["office"])["d3"]

    def test_score_zero_when_no_terms_match(self, ranker):
        assert _scores(ranker, ["email"])["d1"] == 0.0

    def test_higher_tf_scores_higher(self, ranker):
        scores = _scores(ranker, ["parallel"])
        assert scores["d1"] > scores["d2"]


class TestRanking:
    def test_rank_order(self, ranker):
        ranked = ranker.rank(["parallel", "hpc"])
        assert ranked[0][0] == "d1"

    def test_require_match(self, ranker):
        ranked = ranker.rank(["email"])
        assert [d for d, _ in ranked] == ["d3"]

    def test_top_k(self, ranker):
        assert len(ranker.rank(["parallel"], top_k=1)) == 1

    def test_empty_query(self, ranker):
        assert ranker.rank([]) == []
