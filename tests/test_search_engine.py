"""Tests for the entity-scoped search engine."""

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.document import Entity
from repro.search.engine import RANKER_BM25, SearchEngine

from tests.helpers import make_page


@pytest.fixture()
def engine(researcher_corpus):
    return SearchEngine(researcher_corpus, top_k=5)


class TestConfiguration:
    def test_invalid_top_k(self, researcher_corpus):
        with pytest.raises(ValueError):
            SearchEngine(researcher_corpus, top_k=0)

    @pytest.mark.parametrize("top_k", [0, -1, -3])
    def test_invalid_per_call_top_k(self, engine, researcher_corpus, top_k):
        # A per-call k must be >= 1 like the constructor's (0 no longer
        # means every match), and a rejected call charges no fetch.
        entity_id = researcher_corpus.entity_ids()[0]
        with pytest.raises(ValueError, match="top_k"):
            engine.search(entity_id, ["research"], top_k=top_k)
        with pytest.raises(ValueError, match="top_k"):
            engine.seed_results(entity_id, top_k=top_k)
        with pytest.raises(ValueError, match="top_k"):
            engine.retrieve_many(entity_id, [["research"]], top_k=top_k)
        assert engine.fetch_statistics.queries_fired == 0
        assert engine.fetch_statistics.pages_fetched == 0

    def test_seed_fallback_honours_top_k(self, researcher_corpus):
        # The seed and name terms occur on no page, so the engine falls back
        # to the entity's first pages, cut to the per-call k.
        entity = Entity(entity_id="e0", domain="researcher",
                        name_tokens=("alpha",), seed_query=("beta",))
        pages = {f"p{i}": make_page(f"p{i}", "e0", [(["gamma", "delta"], None)])
                 for i in range(7)}
        engine = SearchEngine(Corpus(researcher_corpus.domain_spec, {"e0": entity},
                                     pages, researcher_corpus.type_system), top_k=5)
        assert len(engine.seed_results("e0", top_k=2)) == 2
        assert len(engine.seed_results("e0")) == 5

    def test_unknown_ranker(self, researcher_corpus):
        with pytest.raises(ValueError):
            SearchEngine(researcher_corpus, ranker="tfidf")

    def test_bm25_ranker_supported(self, researcher_corpus):
        engine = SearchEngine(researcher_corpus, ranker=RANKER_BM25)
        entity_id = researcher_corpus.entity_ids()[0]
        assert engine.seed_results(entity_id)


class TestEntityScoping:
    def test_results_only_from_target_entity(self, engine, researcher_corpus):
        entity_id = researcher_corpus.entity_ids()[0]
        results = engine.search(entity_id, ["research"])
        for result in results:
            assert researcher_corpus.get_page(result.page_id).entity_id == entity_id

    def test_unknown_entity_raises(self, engine):
        with pytest.raises(KeyError):
            engine.search("ghost", ["research"])

    def test_top_k_respected(self, engine, researcher_corpus):
        entity_id = researcher_corpus.entity_ids()[0]
        assert len(engine.search(entity_id, ["research"])) <= 5
        assert len(engine.search(entity_id, ["research"], top_k=2)) <= 2


class TestRetrieval:
    def test_nonsense_query_returns_nothing(self, engine, researcher_corpus):
        entity_id = researcher_corpus.entity_ids()[0]
        assert engine.search(entity_id, ["qqqzzzxxx"]) == []

    def test_results_sorted_by_score(self, engine, researcher_corpus):
        entity_id = researcher_corpus.entity_ids()[0]
        results = engine.search(entity_id, ["research"])
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_fetch_pages_materialises_results(self, engine, researcher_corpus):
        entity_id = researcher_corpus.entity_ids()[0]
        results = engine.search(entity_id, ["research"])
        pages = engine.fetch_pages(results)
        assert [p.page_id for p in pages] == [r.page_id for r in results]

    def test_seed_results_nonempty_for_every_entity(self, engine, researcher_corpus):
        for entity_id in researcher_corpus.entity_ids():
            assert engine.seed_results(entity_id)

    @pytest.mark.parametrize("top_k", [None, 1, 3, 50])
    def test_retrieve_many_matches_search(self, engine, researcher_corpus, top_k):
        entity_id = researcher_corpus.entity_ids()[0]
        queries = [("research",), ("qqqzzzxxx",), (), ("research", "research"),
                   ("award", "qqqzzzxxx"), ("", "research")]
        via_search = [[(r.page_id, r.score)
                       for r in engine.search(entity_id, list(query), top_k=top_k,
                                              record_fetch=False)]
                      for query in queries]
        assert engine.retrieve_many(entity_id, queries, top_k=top_k) == via_search
        assert engine.retrieve_many(entity_id, []) == []


class TestFetchAccounting:
    def test_fetch_statistics_recorded(self, researcher_corpus):
        engine = SearchEngine(researcher_corpus, top_k=3,
                              simulated_fetch_seconds_per_page=2.0)
        entity_id = researcher_corpus.entity_ids()[0]
        results = engine.search(entity_id, ["research"])
        stats = engine.fetch_statistics
        assert stats.queries_fired == 1
        assert stats.pages_fetched == len(results)
        assert stats.simulated_fetch_seconds == pytest.approx(2.0 * len(results))
        assert stats.queries_by_entity[entity_id] == 1

    def test_retrieve_many_not_recorded(self, researcher_corpus):
        engine = SearchEngine(researcher_corpus)
        entity_id = researcher_corpus.entity_ids()[0]
        assert engine.retrieve_many(entity_id, [["research"], ["award"]])[0]
        assert engine.fetch_statistics.queries_fired == 0
        assert engine.fetch_statistics.pages_fetched == 0

