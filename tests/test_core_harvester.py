"""Tests for the iterative harvesting loop (Fig. 1)."""

import pytest

from repro.core.config import L2QConfig
from repro.core.harvester import Harvester
from repro.core.queries import Query
from repro.core.selection import QuerySelector, make_selector
from repro.search.engine import SearchEngine


class ScriptedSelector(QuerySelector):
    """Fires a fixed list of queries (test double).

    ``events`` logs every hook call with what the session held at the
    time: the current page ids and the fired queries.
    """

    name = "SCRIPTED"

    def __init__(self, queries):
        self.queries = list(queries)
        self.prepared = False
        self.observed = []
        self.selects = 0
        self.events = []

    def _log(self, hook, session):
        self.events.append((hook, tuple(session.current_page_ids()),
                            tuple(session.past_queries)))

    def prepare(self, session):
        self.prepared = True
        self._log("prepare", session)

    def select(self, session):
        self.selects += 1
        self._log("select", session)
        if not self.queries:
            return None
        return self.queries.pop(0)

    def observe(self, session, query, new_pages):
        self.observed.append((query, tuple(p.page_id for p in new_pages)))
        self._log("observe", session)


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
        assert selector.selects == 2
        assert [record.index for record in result.iterations] == [0, 1]
        # The paper's fetch cost: result count times the per-page price.
        per_page = harvester.engine.simulated_fetch_seconds_per_page
        for record in result.iterations:
            assert record.simulated_fetch_seconds == \
                len(record.result_page_ids) * per_page

    def test_stops_early_when_selector_returns_none(self, harvester, target):
        from repro import perf

        entity_id, relevance = target
        selector = ScriptedSelector([("research",)])
        rec = perf.enable()
        try:
            result = harvester.harvest(entity_id, "RESEARCH", selector,
                                       relevance, num_queries=5)
        finally:
            perf.disable()
        assert result.num_queries == 1
        # The selector was asked once more, said None, and was never asked
        # again; only the selection that fired a query is profiled.
        assert selector.selects == 2
        assert len(selector.observed) == 1
        assert rec.count("selection") == 1

    def test_zero_budget_ends_after_the_seed_and_still_prepares(self, harvester,
                                                                target):
        entity_id, relevance = target
        selector = ScriptedSelector([("research",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=0)
        assert result.seed_page_ids
        assert result.iterations == []
        assert selector.prepared
        assert selector.selects == 0 and selector.observed == []

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

    def test_hooks_see_the_session_in_loop_order(self, harvester, target):
        # prepare runs once the seed pages are in; each select sees every
        # earlier query fired and its pages folded in; each observe sees
        # its own query recorded.
        entity_id, relevance = target
        selector = ScriptedSelector([("research",), ("papers",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=2)
        assert [event[0] for event in selector.events] == \
            ["prepare", "select", "observe", "select", "observe"]
        prepare, first_select, first_observe, second_select, second_observe = \
            selector.events
        assert set(prepare[1]) == set(result.seed_page_ids)
        assert prepare[2] == () and first_select[2] == ()
        assert first_observe[2] == (("research",),)
        assert second_select[1] == first_observe[1]
        assert second_observe[2] == (("research",), ("papers",))
        assert set(second_observe[1]) == set(result.gathered_after(2))

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


class TestFetchBoundary:
    """Every fetch of a run, the seed's first, is one client fetch."""

    def test_every_fetch_goes_through_the_client(self, harvester, target,
                                                 monkeypatch):
        entity_id, relevance = target
        fetched = []
        fetch = harvester.client.fetch

        def recording_fetch(entity, query=None, accounting=None):
            fetched.append((entity, query))
            return fetch(entity, query, accounting=accounting)

        monkeypatch.setattr(harvester.client, "fetch", recording_fetch)
        harvester.harvest(entity_id, "RESEARCH",
                          ScriptedSelector([("research",), ("papers",)]),
                          relevance, num_queries=2)
        assert fetched == [(entity_id, None), (entity_id, ("research",)),
                           (entity_id, ("papers",))]

    def test_seed_pages_are_the_engine_seed_results(self, harvester, target,
                                                    researcher_corpus):
        entity_id, relevance = target
        result = harvester.harvest(entity_id, "RESEARCH", ScriptedSelector([]),
                                   relevance, num_queries=1)
        reference = SearchEngine(researcher_corpus, top_k=5)
        assert result.seed_page_ids == \
            [r.page_id for r in reference.seed_results(entity_id)]

    def test_unmatched_query_still_consumes_a_budget_step(self, harvester,
                                                          target):
        # A query the engine answers with nothing is still a fired query:
        # it takes its budget step, costs nothing to fetch, and the loop
        # goes on to the next selection.
        entity_id, relevance = target
        selector = ScriptedSelector([("qqqzzzxxx",), ("research",),
                                     ("papers",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=2)
        assert result.queries() == [("qqqzzzxxx",), ("research",)]
        empty = result.iterations[0]
        assert empty.result_page_ids == () and empty.new_page_ids == ()
        assert empty.simulated_fetch_seconds == 0.0
        assert selector.observed[0] == (("qqqzzzxxx",), ())
        assert result.iterations[1].result_page_ids


class TestBudget:
    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 5])
    def test_budget_caps_the_iterations(self, harvester, target, budget):
        # Three scripted queries: the run fires min(budget, 3) of them, and
        # a budget beyond the script asks once more, gets None and stops.
        entity_id, relevance = target
        selector = ScriptedSelector([("research",), ("papers",), ("award",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=budget)
        assert result.num_queries == min(budget, 3)
        assert selector.selects == min(budget, 4)
        assert len(selector.observed) == result.num_queries
        assert [record.index for record in result.iterations] == \
            list(range(result.num_queries))

    def test_default_budget_is_the_configured_num_queries(
            self, researcher_corpus, target):
        entity_id, relevance = target
        harvester = Harvester(researcher_corpus,
                              SearchEngine(researcher_corpus, top_k=5),
                              L2QConfig(num_queries=2))
        selector = ScriptedSelector([("research",), ("papers",), ("award",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance)
        assert result.queries() == [("research",), ("papers",)]


class TestIterationRecords:
    def test_observe_receives_each_iteration_new_pages(self, harvester,
                                                       target):
        entity_id, relevance = target
        selector = ScriptedSelector([("research",), ("papers",), ("award",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=3)
        assert selector.observed == [(record.query, record.new_page_ids)
                                     for record in result.iterations]

    def test_new_pages_are_never_gathered_twice(self, harvester, target):
        entity_id, relevance = target
        selector = ScriptedSelector([("research",), ("research", "papers"),
                                     ("papers",), ("award",)])
        result = harvester.harvest(entity_id, "RESEARCH", selector, relevance,
                                   num_queries=4)
        new = [page_id for record in result.iterations
               for page_id in record.new_page_ids]
        assert len(new) == len(set(new))
        assert not set(new) & set(result.seed_page_ids)
        assert set(result.seed_page_ids) | set(new) == \
            set(result.gathered_after(None))

    def test_default_seed_is_the_configured_seed(self, harvester, target):
        from tests.helpers import harvest_signature

        entity_id, relevance = target
        config = harvester.config
        runs = [harvester.harvest(entity_id, "RESEARCH",
                                  make_selector("RND", config), relevance,
                                  num_queries=3, seed=seed)
                for seed in (None, config.random_seed)]
        assert runs[0].num_queries == 3
        assert harvest_signature(runs[0]) == harvest_signature(runs[1])


def _harvest_directly(harvester, jobs):
    return [harvester.harvest(job.entity_id, job.aspect, job.selector,
                              job.relevance, num_queries=job.num_queries,
                              domain_model=job.domain_model, seed=job.seed)
            for job in jobs]


class TestProfiling:
    @pytest.mark.parametrize("driver", [
        _harvest_directly,
        lambda harvester, jobs: [harvester.harvest_job(job) for job in jobs],
        lambda harvester, jobs: harvester.harvest_many(jobs, backend="serial"),
    ], ids=["harvest", "harvest-job", "harvest-many"])
    def test_selection_samples_are_the_recorded_selection_seconds(
            self, researcher_runner, researcher_prepared, driver):
        # One ``selection`` sample per iteration, whichever entry point
        # runs the loop, and each is exactly the record's selection time.
        from repro import perf

        harvester = researcher_runner.harvester_for(researcher_prepared)
        jobs = [researcher_runner.build_job(researcher_prepared, method,
                                            entity_id, "RESEARCH", 2)
                for method in ("RND", "MQ")
                for entity_id in researcher_prepared.split.test_entities[:2]]
        rec = perf.enable()
        try:
            results = driver(harvester, jobs)
        finally:
            perf.disable()
        iterations = [record for result in results
                      for record in result.iterations]
        assert iterations
        assert rec.count("harvest") == len(jobs)
        assert rec.count("selection") == len(iterations)
        assert sorted(s.seconds for s in rec.samples_for("selection")) == \
            sorted(record.selection_seconds for record in iterations)

    def test_harvest_phase_carries_the_run_identity(self, harvester, target):
        from repro import perf

        entity_id, relevance = target
        rec = perf.enable()
        try:
            harvester.harvest(entity_id, "RESEARCH",
                              ScriptedSelector([("research",)]), relevance,
                              num_queries=1)
        finally:
            perf.disable()
        (sample,) = rec.samples_for("harvest")
        assert sample.meta_dict() == {"entity": entity_id,
                                      "aspect": "RESEARCH",
                                      "selector": "SCRIPTED"}
        (selection,) = rec.samples_for("selection")
        assert selection.meta_dict() == {"selector": "SCRIPTED"}
        assert 0.0 <= selection.seconds <= sample.seconds
