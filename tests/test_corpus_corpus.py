"""Tests for the Corpus container."""

import pytest

from tests.helpers import make_page

from repro.corpus.corpus import Corpus
from repro.corpus.domains import researcher_domain


class TestCorpusBasics:
    def test_entity_ids_sorted(self, researcher_corpus):
        ids = researcher_corpus.entity_ids()
        assert ids == sorted(ids)

    def test_pages_of_returns_only_entity_pages(self, researcher_corpus):
        entity_id = researcher_corpus.entity_ids()[0]
        for page in researcher_corpus.pages_of(entity_id):
            assert page.entity_id == entity_id

    def test_get_page_and_entity(self, researcher_corpus):
        entity_id = researcher_corpus.entity_ids()[0]
        page = researcher_corpus.pages_of(entity_id)[0]
        assert researcher_corpus.get_page(page.page_id) is page
        assert researcher_corpus.get_entity(entity_id).entity_id == entity_id

    def test_iter_pages_in_id_order(self, researcher_corpus):
        ids = [p.page_id for p in researcher_corpus.iter_pages()]
        assert ids == sorted(ids)

    def test_page_with_unknown_entity_rejected(self):
        spec = researcher_domain()
        page = make_page("pX", "ghost", [(["hello"], None)])
        with pytest.raises(ValueError):
            Corpus(spec, entities={}, pages={"pX": page})


class TestRelevance:
    def test_relevant_pages_match_ground_truth(self, researcher_corpus):
        entity_id = researcher_corpus.entity_ids()[0]
        relevant = researcher_corpus.relevant_pages(entity_id, "RESEARCH")
        for page in relevant:
            assert page.has_aspect("RESEARCH")
        all_pages = researcher_corpus.pages_of(entity_id)
        for page in all_pages:
            if page not in relevant:
                assert not page.has_aspect("RESEARCH")

    def test_aspect_paragraph_count_consistent_with_stats(self, researcher_corpus):
        stats = researcher_corpus.stats()
        for aspect in researcher_corpus.aspects:
            assert stats.paragraphs_per_aspect[aspect] == \
                researcher_corpus.aspect_paragraph_count(aspect)


class TestSubset:
    def test_subset_restricts_entities_and_pages(self, researcher_corpus):
        keep = researcher_corpus.entity_ids()[:3]
        subset = researcher_corpus.subset(keep)
        assert subset.entity_ids() == keep
        assert all(p.entity_id in keep for p in subset.iter_pages())
        assert subset.num_pages() == sum(
            len(researcher_corpus.pages_of(e)) for e in keep)

    def test_subset_unknown_entity_raises(self, researcher_corpus):
        with pytest.raises(KeyError):
            researcher_corpus.subset(["ghost"])

    def test_subset_shares_type_system(self, researcher_corpus):
        subset = researcher_corpus.subset(researcher_corpus.entity_ids()[:2])
        assert subset.type_system is researcher_corpus.type_system

    def test_empty_subset(self, researcher_corpus):
        subset = researcher_corpus.subset([])
        assert subset.num_entities() == 0
        assert subset.num_pages() == 0


class TestStats:
    def test_stats_totals(self, researcher_corpus):
        stats = researcher_corpus.stats()
        assert stats.num_entities == researcher_corpus.num_entities()
        assert stats.num_pages == researcher_corpus.num_pages()
        assert stats.num_paragraphs == sum(
            len(p.paragraphs) for p in researcher_corpus.iter_pages())

    @pytest.mark.parametrize("corpus_name", ["researcher_corpus", "car_corpus"])
    def test_vocabulary_size_counts_distinct_page_tokens(self, request, corpus_name):
        corpus = request.getfixturevalue(corpus_name)
        distinct = set()
        for page in corpus.pages.values():
            for paragraph in page.paragraphs:
                distinct.update(paragraph.tokens)
        assert corpus.stats().vocabulary_size == len(distinct) > 0

    def test_stats_rows_render(self, researcher_corpus):
        rows = researcher_corpus.stats().as_rows()
        assert ("domain", "researcher") in rows
        assert len(rows) >= 6
