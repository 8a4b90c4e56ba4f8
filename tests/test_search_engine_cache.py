"""Tests for the search engine's LRU result cache and its accounting."""

import pytest

from repro.search.engine import SearchEngine


@pytest.fixture()
def engine(researcher_corpus):
    return SearchEngine(researcher_corpus, top_k=5)


@pytest.fixture()
def entity_id(researcher_corpus):
    return researcher_corpus.entity_ids()[0]


class TestCacheAccounting:
    def test_first_query_misses_then_hits(self, engine, entity_id):
        first = engine.search(entity_id, ["research"])
        stats = engine.fetch_statistics
        assert (stats.cache_hits, stats.cache_misses) == (0, 1)
        second = engine.search(entity_id, ["research"])
        stats = engine.fetch_statistics
        assert (stats.cache_hits, stats.cache_misses) == (1, 1)
        assert second == first

    def test_distinct_keys_do_not_collide(self, engine, entity_id, researcher_corpus):
        engine.search(entity_id, ["research"])
        engine.search(entity_id, ["research"], top_k=2)       # different k
        engine.search(entity_id, ["parallel"])                # different query
        other = researcher_corpus.entity_ids()[1]
        engine.search(other, ["research"])                    # different entity
        stats = engine.fetch_statistics
        assert stats.cache_hits == 0
        assert stats.cache_misses == 4

    def test_hit_rate(self, engine, entity_id):
        assert engine.fetch_statistics.cache_hit_rate == 0.0
        engine.search(entity_id, ["research"])
        engine.search(entity_id, ["research"])
        engine.search(entity_id, ["research"])
        assert engine.fetch_statistics.cache_hit_rate == pytest.approx(2 / 3)

    def test_fetch_accounting_still_charged_on_hits(self, engine, entity_id):
        first = engine.search(entity_id, ["research"])
        engine.search(entity_id, ["research"])
        stats = engine.fetch_statistics
        # The cache saves ranking CPU, not the (simulated) fetch cost: both
        # queries count as fired and both download their result pages.
        assert stats.queries_fired == 2
        assert stats.pages_fetched == 2 * len(first)

    def test_uncounted_lookups_also_cached(self, engine, entity_id):
        engine.search(entity_id, ["research"], record_fetch=False)
        engine.search(entity_id, ["research"], record_fetch=False)
        stats = engine.fetch_statistics
        assert stats.queries_fired == 0
        assert (stats.cache_hits, stats.cache_misses) == (1, 1)

    def test_batched_retrieval_bypasses_the_cache(self, engine, entity_id):
        engine.retrieve_many(entity_id, [["research"], ["research"]])
        engine.retrieve_many(entity_id, [["research"]])
        stats = engine.fetch_statistics
        assert (stats.cache_hits, stats.cache_misses) == (0, 0)
        # Nothing was filled either: the first search still misses.
        engine.search(entity_id, ["research"])
        assert (stats.cache_hits, stats.cache_misses) == (0, 1)


class TestCacheBehaviour:
    def test_lru_eviction(self, researcher_corpus):
        engine = SearchEngine(researcher_corpus, result_cache_size=2)
        entity_id = researcher_corpus.entity_ids()[0]
        engine.search(entity_id, ["research"])    # miss: {research}
        engine.search(entity_id, ["parallel"])    # miss: {research, parallel}
        engine.search(entity_id, ["award"])       # miss, evicts research
        engine.search(entity_id, ["research"])    # miss again after eviction
        stats = engine.fetch_statistics
        assert stats.cache_hits == 0
        assert stats.cache_misses == 4

    def test_cache_disabled(self, researcher_corpus):
        engine = SearchEngine(researcher_corpus, result_cache_size=0)
        entity_id = researcher_corpus.entity_ids()[0]
        first = engine.search(entity_id, ["research"])
        second = engine.search(entity_id, ["research"])
        stats = engine.fetch_statistics
        assert (stats.cache_hits, stats.cache_misses) == (0, 0)
        assert second == first

    def test_negative_capacity_rejected(self, researcher_corpus):
        with pytest.raises(ValueError):
            SearchEngine(researcher_corpus, result_cache_size=-1)
