"""Tests for the inverted index."""

import pytest

from repro.search.index import InvertedIndex


@pytest.fixture()
def index():
    return InvertedIndex.from_documents({
        "d1": ["parallel", "hpc", "research", "parallel"],
        "d2": ["data", "mining", "research"],
        "d3": ["hpc", "systems"],
    })


class TestConstruction:
    def test_document_count(self, index):
        assert index.num_documents == 3

    def test_total_tokens(self, index):
        assert index.total_tokens == 9

    def test_average_document_length(self, index):
        assert index.average_document_length == pytest.approx(3.0)

    def test_contains(self, index):
        assert "d1" in index
        assert "missing" not in index

    def test_empty_index(self):
        empty = InvertedIndex.from_documents({})
        assert empty.num_documents == 0
        assert empty.vocabulary() == []
        assert empty.average_document_length == 0.0
        assert empty.collection_probability("x") == 0.0


class TestTermStatistics:
    def test_term_frequency(self, index):
        assert index.term_frequency("parallel", "d1") == 2
        assert index.term_frequency("parallel", "d2") == 0

    def test_document_frequency(self, index):
        assert index.document_frequency("research") == 2
        assert index.document_frequency("missing") == 0

    def test_collection_frequency(self, index):
        assert index.collection_frequency("parallel") == 2
        assert index.collection_frequency("hpc") == 2

    def test_collection_probability_sums_to_one(self, index):
        total = sum(index.collection_probability(t) for t in index.vocabulary())
        assert total == pytest.approx(1.0)

    def test_document_frequency_counts_documents_not_occurrences(self, index):
        # "parallel" occurs twice, in one document.
        assert index.document_frequency("parallel") == 1
        assert index.collection_frequency("parallel") == 2

    def test_term_frequency_of_unknown_document_is_zero(self, index):
        assert index.term_frequency("parallel", "missing") == 0

    def test_postings_copy(self, index):
        postings = index.postings("hpc")
        assert postings == {"d1": 1, "d3": 1}
        postings["d9"] = 5
        assert "d9" not in index.postings("hpc")

    def test_document_length(self, index):
        assert index.document_length("d1") == 4
        with pytest.raises(KeyError):
            index.document_length("missing")



class TestPositions:
    """The matrix's id maps: one row per document, one column per term."""

    def test_positions_round_trip(self, index):
        matrix = index.term_document_matrix()
        assert list(matrix.terms) == index.vocabulary()
        for term in matrix.terms:
            assert matrix.terms[matrix.term_position(term)] == term
        for doc_id in matrix.doc_ids:
            assert matrix.doc_ids[matrix.doc_position(doc_id)] == doc_id

    def test_unknown_positions_are_none(self, index):
        matrix = index.term_document_matrix()
        assert matrix.term_position("zzz") is None
        assert matrix.doc_position("missing") is None


class TestMatchingDocuments:
    def test_any_match(self, index):
        assert index.matching_documents(["hpc", "data"]) == {"d1", "d2", "d3"}

    def test_all_match(self, index):
        assert index.matching_documents(["hpc", "research"], require_all=True) == {"d1"}

    def test_empty_terms(self, index):
        assert index.matching_documents([]) == set()

    def test_unknown_term(self, index):
        assert index.matching_documents(["zzz"]) == set()
