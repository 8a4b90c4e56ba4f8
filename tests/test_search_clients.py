"""The fetch boundary: one :class:`SearchClient.fetch` per harvest fetch.

The client is the engine call plus the materialisation of the result
pages, nothing else: it must answer exactly what the engine answers, for
the seed query and for any selected query, under every registered ranker,
and charge the run's accounting the way the engine does.
"""

import pytest

from repro.search.clients import SearchClient
from repro.search.engine import RunFetchAccounting, SearchEngine
from repro.search.rankers import ranker_names

NONSENSE = ("qqqzzzxxx",)


def _engine(corpus, ranker="dirichlet", **kwargs):
    return SearchEngine(corpus, ranker=ranker, top_k=5, **kwargs)


def _matching_query(corpus, entity_id):
    """A one-word query that occurs on the entity's first page."""
    return (corpus.pages_of(entity_id)[0].paragraphs[0].tokens[0],)


@pytest.fixture()
def entity_id(researcher_corpus):
    return researcher_corpus.entity_ids()[0]


class TestAnswersWhatTheEngineAnswers:
    @pytest.mark.parametrize("ranker", ranker_names())
    def test_seed_fetch_is_the_engine_seed_query(self, researcher_corpus,
                                                 entity_id, ranker):
        results, pages = SearchClient(_engine(researcher_corpus, ranker)) \
            .fetch(entity_id)
        reference = _engine(researcher_corpus, ranker)
        expected = reference.seed_results(entity_id)
        assert results == expected
        assert pages == reference.fetch_pages(expected)

    @pytest.mark.parametrize("ranker", ranker_names())
    def test_query_fetch_is_the_engine_search(self, researcher_corpus,
                                              entity_id, ranker):
        query = _matching_query(researcher_corpus, entity_id)
        results, pages = SearchClient(_engine(researcher_corpus, ranker)) \
            .fetch(entity_id, query)
        reference = _engine(researcher_corpus, ranker)
        expected = reference.search(entity_id, list(query))
        assert results and results == expected
        assert pages == reference.fetch_pages(expected)

    def test_pages_follow_the_result_order(self, researcher_corpus, entity_id):
        client = SearchClient(_engine(researcher_corpus))
        for query in (None, _matching_query(researcher_corpus, entity_id)):
            results, pages = client.fetch(entity_id, query)
            assert [page.page_id for page in pages] == \
                [result.page_id for result in results]

    def test_pages_belong_to_the_entity(self, researcher_corpus, entity_id):
        client = SearchClient(_engine(researcher_corpus))
        for query in (None, _matching_query(researcher_corpus, entity_id)):
            _, pages = client.fetch(entity_id, query)
            assert pages
            assert {page.entity_id for page in pages} == {entity_id}

    def test_any_sequence_is_a_query(self, researcher_corpus, entity_id):
        # The loop hands over Query tuples; the engine takes lists.
        client = SearchClient(_engine(researcher_corpus))
        query = _matching_query(researcher_corpus, entity_id)
        assert client.fetch(entity_id, query) == \
            client.fetch(entity_id, list(query))

    def test_unmatched_query_fetches_nothing(self, researcher_corpus,
                                             entity_id):
        client = SearchClient(_engine(researcher_corpus))
        assert client.fetch(entity_id, NONSENSE) == ([], [])

    @pytest.mark.parametrize("query", [None, ("research",)],
                             ids=["seed", "query"])
    def test_unknown_entity_raises(self, researcher_corpus, query):
        client = SearchClient(_engine(researcher_corpus))
        with pytest.raises(KeyError):
            client.fetch("ghost", query)


class TestAccounting:
    def test_query_fetch_is_charged_to_the_run(self, researcher_corpus,
                                              entity_id):
        engine = _engine(researcher_corpus, simulated_fetch_seconds_per_page=2.0)
        query = _matching_query(researcher_corpus, entity_id)
        accounting = RunFetchAccounting()
        results, _ = SearchClient(engine).fetch(entity_id, query,
                                                accounting=accounting)
        assert accounting.queries_fired == 1
        assert accounting.pages_fetched == len(results)
        assert accounting.simulated_fetch_seconds == \
            pytest.approx(2.0 * len(results))
        assert accounting.queries_by_entity == {entity_id: 1}
        assert accounting.cache_keys == [(entity_id, query, engine.top_k)]

    def test_seed_fetch_is_charged_to_the_run(self, researcher_corpus,
                                             entity_id):
        accounting = RunFetchAccounting()
        results, _ = SearchClient(_engine(researcher_corpus)).fetch(
            entity_id, accounting=accounting)
        assert accounting.pages_fetched == len(results)
        assert set(accounting.queries_by_entity) == {entity_id}

    def test_unmatched_query_is_still_charged_as_fired(self, researcher_corpus,
                                                       entity_id):
        accounting = RunFetchAccounting()
        SearchClient(_engine(researcher_corpus)).fetch(
            entity_id, NONSENSE, accounting=accounting)
        assert accounting.queries_fired == 1
        assert accounting.pages_fetched == 0
        assert accounting.simulated_fetch_seconds == 0.0

    def test_engine_statistics_recorded_without_a_run_account(
            self, researcher_corpus, entity_id):
        engine = _engine(researcher_corpus)
        results, _ = SearchClient(engine).fetch(
            entity_id, _matching_query(researcher_corpus, entity_id))
        assert engine.fetch_statistics.queries_fired == 1
        assert engine.fetch_statistics.pages_fetched == len(results)

    def test_repeated_fetch_is_served_from_the_result_cache(
            self, researcher_corpus, entity_id):
        engine = _engine(researcher_corpus)
        client = SearchClient(engine)
        query = _matching_query(researcher_corpus, entity_id)
        first = client.fetch(entity_id, query)
        assert client.fetch(entity_id, query) == first
        assert engine.fetch_statistics.cache_hits == 1
        assert engine.fetch_statistics.cache_misses == 1
        # A cache hit is still a fired query: the run pays for its pages.
        assert engine.fetch_statistics.queries_fired == 2
