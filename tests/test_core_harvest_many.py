"""Tests for batched harvesting (``Harvester.harvest_many``).

The acceptance bar of the refactor: ``workers=4`` must reproduce
``workers=1`` bit-for-bit (fired queries, result pages, new pages and seed
pages; wall-clock timings naturally differ), and selection must run
entirely off the session's incremental candidate statistics — no full
re-enumeration of the working set inside ``select()``.
"""

import pytest

from repro.baselines.manual import ManualQuerySelection
from repro.core.harvester import Harvester
from repro.core.queries import QueryEnumerator

from tests.helpers import harvest_signature as _signature


def _jobs(runner, prepared, methods, num_queries=2):
    entities = list(prepared.split.test_entities)[:2]
    return [runner.build_job(prepared, method, entity_id, "RESEARCH", num_queries)
            for method in methods
            for entity_id in entities]


class TestDeterminism:
    @pytest.mark.parametrize("methods", [("L2QBAL", "RND"), ("LM", "HR")])
    def test_workers_4_reproduces_workers_1(self, researcher_runner,
                                            researcher_prepared, methods):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        serial = harvester.harvest_many(
            _jobs(researcher_runner, researcher_prepared, methods), workers=1)
        parallel = harvester.harvest_many(
            _jobs(researcher_runner, researcher_prepared, methods), workers=4)
        assert [_signature(r) for r in serial] == [_signature(r) for r in parallel]

    def test_results_in_job_order(self, researcher_runner, researcher_prepared):
        jobs = _jobs(researcher_runner, researcher_prepared, ("RND", "MQ"))
        harvester = researcher_runner.harvester_for(researcher_prepared)
        results = harvester.harvest_many(jobs, workers=3)
        assert [(r.entity_id, r.selector_name) for r in results] == \
            [(j.entity_id, j.selector.name) for j in jobs]

    def test_evaluate_methods_identical_across_worker_counts(self, researcher_corpus):
        from repro.eval.runner import ExperimentRunner
        from repro.exec.specs import CorpusSpec

        # Several workers mean the process backend, whose workers rebuild
        # the corpus from its spec.
        spec = CorpusSpec(domain="researcher", num_entities=16,
                          pages_per_entity=10, seed=11)

        def run(workers):
            runner = ExperimentRunner(researcher_corpus, base_seed=5, workers=workers,
                                      corpus_spec=spec)
            return runner.evaluate_methods(("RND", "MQ"), num_queries_list=(2,),
                                           max_test_entities=2,
                                           aspects=("RESEARCH",))

        serial, parallel = run(1), run(4)
        for method in ("RND", "MQ"):
            assert serial[method].precision == parallel[method].precision
            assert serial[method].recall == parallel[method].recall
            assert serial[method].f_score == parallel[method].f_score


class TestValidation:
    def test_zero_workers_rejected(self, researcher_runner, researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        with pytest.raises(ValueError):
            harvester.harvest_many([], workers=0)

    def test_empty_batch(self, researcher_runner, researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        assert harvester.harvest_many([], workers=4) == []

    def test_runner_rejects_zero_workers(self, researcher_corpus):
        from repro.eval.runner import ExperimentRunner
        with pytest.raises(ValueError):
            ExperimentRunner(researcher_corpus, workers=0)


class TestSelectionHotPath:
    def test_select_never_reenumerates_working_set(self, researcher_runner,
                                                   researcher_prepared, monkeypatch):
        """`select()` must run off the incremental statistics: a full
        re-enumeration of the gathered pages would defeat the amortisation,
        so it is banned from the hot path for every strategy.  Pages are
        enumerated once each, when a fold first needs the entity's table."""
        selecting = []
        enumerated = []
        enumerate_from_page = QueryEnumerator.enumerate_from_page

        def _outside_select(self, page):
            if selecting:
                raise AssertionError(
                    f"page {page.page_id} enumerated inside a select() hot path")
            enumerated.append(page.page_id)
            return enumerate_from_page(self, page)

        # A harvester of its own: its entities' tables are not built yet.
        harvester = Harvester(researcher_prepared.corpus, researcher_prepared.engine,
                              researcher_prepared.config)
        jobs = _jobs(researcher_runner, researcher_prepared,
                     ("RND", "P", "R+t", "L2QBAL", "LM", "AQ", "HR", "MQ"),
                     num_queries=2)
        for job in jobs:
            def select(session, select=job.selector.select):
                selecting.append(session)
                try:
                    return select(session)
                finally:
                    selecting.pop()
            job.selector.select = select
        monkeypatch.setattr(QueryEnumerator, "enumerate_from_page", _outside_select)
        results = harvester.harvest_many(jobs)
        assert len(results) == len(jobs)
        assert sorted(enumerated) == sorted(
            page.page_id for entity_id in {job.entity_id for job in jobs}
            for page in researcher_prepared.corpus.pages_of(entity_id))


class TestHarvestJob:
    def test_harvest_job_equivalent_to_harvest(self, researcher_runner,
                                               researcher_prepared):
        entity_id = researcher_prepared.split.test_entities[0]
        job = researcher_runner.build_job(researcher_prepared, "MQ", entity_id,
                                          "RESEARCH", 2)
        harvester = researcher_runner.harvester_for(researcher_prepared)
        via_job = harvester.harvest_job(job)
        via_harvest = harvester.harvest(
            entity_id=entity_id, aspect="RESEARCH",
            selector=ManualQuerySelection(researcher_prepared.corpus.domain_spec),
            relevance=job.relevance, num_queries=2,
            domain_model=job.domain_model, seed=job.seed)
        assert _signature(via_job) == _signature(via_harvest)
