"""Tests for entity-scoped views of the shared corpus index.

The engine indexes the corpus once and serves every entity through
:meth:`InvertedIndex.view`; these tests pin the core invariant that a view
is statistically indistinguishable from a from-scratch per-entity index,
and that every statistic of an index or a view — value and Python type —
equals the dict-postings reference ``tests/oracles.py::ReferenceIndex``.
"""

import random

import pytest

from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex

from tests.oracles import ReferenceIndex, assert_same_index

DOCUMENTS = {
    "a1": ["parallel", "hpc", "research", "parallel"],
    "a2": ["data", "mining", "research"],
    "b1": ["hpc", "systems", "award"],
    "b2": ["award", "ceremony", "award"],
}
SUBSET = ("a1", "a2")
VOCABULARY = [f"w{i}" for i in range(12)]


@pytest.fixture()
def parent():
    return InvertedIndex.from_documents(DOCUMENTS)


@pytest.fixture()
def view(parent):
    return parent.view(SUBSET)


@pytest.fixture()
def scratch():
    return InvertedIndex.from_documents({d: DOCUMENTS[d] for d in SUBSET})


def _random_documents(rng: random.Random, num_docs: int) -> dict:
    documents = {}
    for position in range(num_docs):
        if documents and rng.random() < 0.2:
            tokens = list(rng.choice(list(documents.values())))
        else:
            tokens = [rng.choice(VOCABULARY) for _ in range(rng.randint(0, 15))]
        documents[f"d{position:02d}"] = tokens
    return documents


class TestIndexMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_index_and_views_match_reference(self, seed):
        rng = random.Random(seed)
        documents = _random_documents(rng, rng.randint(1, 12))
        index = InvertedIndex.from_documents(documents)
        reference = ReferenceIndex.from_documents(documents)
        assert_same_index(index, reference)
        ids = list(documents)
        for subset in ([], rng.sample(ids, rng.randint(1, len(ids))), ids):
            view = index.view(subset)
            assert_same_index(view, reference.view(subset))
            # A view of a view is the view of the intersection.
            inner = subset[: len(subset) // 2]
            assert_same_index(view.view(inner), reference.view(inner))

    def test_fixture_index_matches_reference(self, parent):
        assert_same_index(parent, ReferenceIndex.from_documents(DOCUMENTS))


class TestViewMatchesScratchIndex:
    def test_document_statistics(self, view, scratch):
        assert view.num_documents == scratch.num_documents
        assert view.total_tokens == scratch.total_tokens
        assert view.average_document_length == scratch.average_document_length
        assert view.document_ids() == scratch.document_ids()

    def test_document_lengths(self, view, scratch):
        for doc_id in SUBSET:
            assert view.document_length(doc_id) == scratch.document_length(doc_id)

    def test_matrix_equals_scratch_matrix(self, view, scratch):
        mine, theirs = view.term_document_matrix(), scratch.term_document_matrix()
        assert mine.doc_ids == theirs.doc_ids
        assert mine.terms == theirs.terms
        assert mine.total_tokens == theirs.total_tokens
        for part in ("indptr", "indices", "data"):
            a, b = getattr(mine.matrix, part), getattr(theirs.matrix, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
        assert mine.doc_lengths.tobytes() == theirs.doc_lengths.tobytes()
        assert mine.collection_frequencies.tobytes() == \
            theirs.collection_frequencies.tobytes()

    def test_term_statistics_over_full_vocabulary(self, parent, view, scratch):
        for term in parent.vocabulary():
            assert view.document_frequency(term) == scratch.document_frequency(term)
            assert view.collection_frequency(term) == scratch.collection_frequency(term)
            assert view.collection_probability(term) == \
                scratch.collection_probability(term)
            assert view.postings(term) == scratch.postings(term)
            for doc_id in SUBSET:
                assert view.term_frequency(term, doc_id) == \
                    scratch.term_frequency(term, doc_id)

    def test_vocabulary_restricted(self, view, scratch):
        assert view.vocabulary() == scratch.vocabulary()
        assert "ceremony" not in view.vocabulary()

    def test_matching_documents(self, view, scratch):
        for terms in (["hpc"], ["research", "data"], ["award"], ["hpc", "research"]):
            assert view.matching_documents(terms) == scratch.matching_documents(terms)
            assert view.matching_documents(terms, require_all=True) == \
                scratch.matching_documents(terms, require_all=True)
        assert view.matching_documents([]) == set()


class TestViewBoundaries:
    def test_membership(self, view):
        assert "a1" in view
        assert "b1" not in view

    def test_outside_document_rejected(self, view):
        with pytest.raises(KeyError):
            view.document_length("b1")
        assert view.term_frequency("hpc", "b1") == 0

    def test_unknown_document_in_view_spec_rejected(self, parent):
        with pytest.raises(KeyError):
            parent.view(["a1", "ghost"])

    def test_empty_view(self, parent):
        empty = parent.view([])
        assert empty.num_documents == 0
        assert empty.average_document_length == 0.0
        assert empty.collection_probability("hpc") == 0.0
        assert empty.vocabulary() == []


class TestEngineSharedIndex:
    def test_exactly_one_corpus_index_built(self, researcher_corpus):
        engine = SearchEngine(researcher_corpus)
        assert engine.index_builds == 0
        for entity_id in researcher_corpus.entity_ids():
            engine.search(entity_id, ["research"])
        assert engine.index_builds == 1

    def test_entity_view_matches_scratch_entity_index(self, researcher_corpus):
        engine = SearchEngine(researcher_corpus)
        entity_id = researcher_corpus.entity_ids()[0]
        view = engine.entity_index(entity_id)
        assert isinstance(view, InvertedIndex)
        assert_same_index(view, ReferenceIndex.from_documents(
            {p.page_id: p.tokens for p in researcher_corpus.pages_of(entity_id)}))
