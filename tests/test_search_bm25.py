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


class TestScoring:
    def test_idf_zero_for_unknown_term(self, ranker):
        assert ranker.idf("banana") == 0.0

    def test_idf_decreases_with_document_frequency(self, ranker):
        assert ranker.idf("email") > ranker.idf("parallel")

    def test_score_zero_when_no_terms_match(self, ranker):
        assert ranker.score(["banana"], "d1") == 0.0

    def test_higher_tf_scores_higher(self, ranker):
        assert ranker.score(["parallel"], "d1") > ranker.score(["parallel"], "d2")

    def test_unknown_document_raises(self, ranker):
        with pytest.raises(KeyError):
            ranker.score(["parallel"], "missing")


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
