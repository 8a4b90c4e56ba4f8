"""Tests for the iterative harvesting loop (Fig. 1)."""

import pytest

from repro.core.config import L2QConfig
from repro.core.harvester import Harvester
from repro.core.queries import Query
from repro.core.selection import QuerySelector, make_selector
from repro.search.engine import SearchEngine


class ScriptedSelector(QuerySelector):
    """Fires a fixed list of queries (test double)."""

    name = "SCRIPTED"

    def __init__(self, queries):
        self.queries = list(queries)
        self.prepared = False
        self.observed = []

    def prepare(self, session):
        self.prepared = True

    def select(self, session):
        if not self.queries:
            return None
        return self.queries.pop(0)

    def observe(self, session, query, new_pages):
        self.observed.append((query, tuple(p.page_id for p in new_pages)))


@pytest.fixture()
def harvester(researcher_corpus):
    engine = SearchEngine(researcher_corpus, top_k=5)
    return Harvester(researcher_corpus, engine, L2QConfig())


@pytest.fixture()
def target(researcher_corpus, researcher_prepared):
    entity_id = researcher_prepared.split.test_entities[0]
    return entity_id, researcher_prepared.relevance_by_aspect["RESEARCH"]


class TestHarvestLoop:
    def test_seed_results_always_gathered(self, harvester, target):
        entity_id, relevance = target
        result = harvester.harvest(entity_id, "RESEARCH", ScriptedSelector([]),
                                   relevance, num_queries=3)
        assert result.seed_page_ids
        assert result.num_queries == 0
        assert result.gathered_after(0) == result.seed_page_ids

    def test_budget_respected(self, harvester, target):
        entity_id, relevance = target
        selector = ScriptedSelector([("research",), ("papers",), ("award",), ("extra",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=2)
        assert result.num_queries == 2
        assert result.queries() == [("research",), ("papers",)]

    def test_stops_early_when_selector_returns_none(self, harvester, target):
        entity_id, relevance = target
        selector = ScriptedSelector([("research",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=5)
        assert result.num_queries == 1

    def test_lifecycle_hooks_called(self, harvester, target):
        entity_id, relevance = target
        selector = ScriptedSelector([("research",), ("papers",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=2)
        assert selector.prepared
        assert len(selector.observed) == result.num_queries

    def test_gathered_after_is_cumulative_and_deduplicated(self, harvester, target):
        entity_id, relevance = target
        selector = ScriptedSelector([("research",), ("research", "papers")])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=2)
        after_one = result.gathered_after(1)
        after_two = result.gathered_after(2)
        assert set(after_one) <= set(after_two)
        assert len(after_two) == len(set(after_two))
        assert result.gathered_after(None) == after_two

    def test_gathered_after_rejects_negative_counts(self, harvester, target):
        # A negative count would slice from the end and answer for another
        # budget; 0 (the seed-only point) stays legal.
        entity_id, relevance = target
        selector = ScriptedSelector([("research",), ("papers",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=2)
        assert result.gathered_after(0) == result.seed_page_ids
        with pytest.raises(ValueError, match="num_queries"):
            result.gathered_after(-1)

    def test_iteration_records_track_results(self, harvester, target):
        entity_id, relevance = target
        selector = ScriptedSelector([("research",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=1)
        record = result.iterations[0]
        assert record.query == ("research",)
        assert set(record.new_page_ids) <= set(record.result_page_ids)
        assert record.selection_seconds >= 0.0
        assert record.simulated_fetch_seconds >= 0.0

    def test_iteration_timings_populated(self, harvester, target):
        entity_id, relevance = target
        selector = ScriptedSelector([("research",), ("papers",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=2)
        assert len(result.iterations) == 2
        assert all(r.simulated_fetch_seconds > 0.0 for r in result.iterations)
        assert all(r.selection_seconds >= 0.0 for r in result.iterations)

    def test_unknown_entity_raises(self, harvester, target):
        _, relevance = target
        with pytest.raises(KeyError):
            harvester.harvest("ghost", "RESEARCH", ScriptedSelector([]), relevance)

    def test_full_l2qbal_harvest_round_trip(self, researcher_corpus, researcher_prepared):
        engine = researcher_prepared.engine
        harvester = Harvester(researcher_corpus, engine, L2QConfig())
        entity_id = researcher_prepared.split.test_entities[0]
        result = harvester.harvest(
            entity_id, "RESEARCH", make_selector("L2QBAL"),
            researcher_prepared.relevance_by_aspect["RESEARCH"], num_queries=2,
            domain_model=researcher_prepared.domain_model("RESEARCH"))
        assert result.num_queries == 2
        assert len(result.gathered_after(2)) >= len(result.seed_page_ids)
        assert result.selector_name == "L2QBAL"
