"""Tests for job-level harvesting (``Harvester.harvest_job``).

A job run reproduces the direct loop bit-for-bit, the runner's evaluation
is identical for any worker count, and selection runs entirely off the
session's incremental candidate statistics — no full re-enumeration of the
working set inside ``select()``.
"""

import pytest

from repro.baselines.manual import ManualQuerySelection
from repro.core.harvester import Harvester
from repro.core.queries import QueryEnumerator

from tests.helpers import harvest_signature as _signature
from tests.helpers import run_split_specs

#: The spec the process workers rebuild ``researcher_corpus`` from.
RESEARCHER_SPEC = dict(domain="researcher", num_entities=16,
                       pages_per_entity=10, seed=11)


def _jobs(runner, prepared, methods, num_queries=2):
    entities = list(prepared.split.test_entities)[:2]
    return [runner.build_job(prepared, method, entity_id, "RESEARCH", num_queries)
            for method in methods
            for entity_id in entities]


class TestDeterminism:
    @pytest.mark.parametrize("methods", [("L2QBAL", "RND"), ("LM", "HR")])
    def test_workers_4_reproduces_workers_1(self, researcher_corpus, methods):
        # Four process workers, one task per job, each building and
        # harvesting it in a world rebuilt from the corpus spec, reproduce
        # the in-process loop.
        from repro.exec.specs import CorpusSpec

        serial = run_split_specs(researcher_corpus, methods)
        parallel = run_split_specs(researcher_corpus, methods, workers=4,
                                   corpus_spec=CorpusSpec(**RESEARCHER_SPEC))
        assert [_signature(r) for r in parallel] == \
            [_signature(r) for r in serial]

    def test_results_in_job_order(self, researcher_corpus):
        # Whichever of four workers runs a job, its result comes back in
        # the job's place.
        from repro.eval.runner import ExperimentRunner
        from repro.exec.specs import CorpusSpec

        runner = ExperimentRunner(researcher_corpus, base_seed=5)
        split = runner.default_split(0)
        methods = ("RND", "MQ")
        results = run_split_specs(researcher_corpus, methods, workers=4,
                                  corpus_spec=CorpusSpec(**RESEARCHER_SPEC))
        assert [(r.selector_name, r.entity_id) for r in results] == \
            [(method, entity_id) for method in methods
             for entity_id in list(split.test_entities)[:2]]

    def test_evaluate_methods_identical_across_worker_counts(self):
        from repro.eval.experiments import ExperimentScale
        from repro.eval.scenario_sweep import figure_cell_specs, run_cells

        # One cell per (domain, fraction): four cells for four workers.
        scale = ExperimentScale(
            name="unit", num_entities={"researcher": 16, "car": 12},
            pages_per_entity=10, num_splits=1, max_test_entities=2,
            max_aspects=1, num_queries_list=(2,), corpus_seed=11)
        cells = figure_cell_specs(scale, ("researcher", "car"), ("RND", "MQ"),
                                  (2,), fractions=(0.5, 1.0))
        serial = run_cells(cells, corpus_store="off")
        parallel = run_cells(cells, workers=4, corpus_store="off")
        assert all(result.rows for result in serial)
        assert parallel == serial


class TestValidation:
    def test_empty_batch(self):
        # A dispatch without cells runs nothing and starts no pool.
        from repro.eval.scenario_sweep import dispatch_cells
        from repro.exec.backends import ProcessBackend

        backend = ProcessBackend(2)
        try:
            assert dispatch_cells(backend, [], {}) == []
            assert backend._pool is None
        finally:
            backend.close()

    def test_figure_rejects_zero_workers(self):
        from repro.eval.experiments import SMOKE_SCALE, run_fig13

        with pytest.raises(ValueError, match="workers"):
            run_fig13(SMOKE_SCALE, workers=0)

    def test_negative_budget_rejected(self, researcher_runner,
                                      researcher_prepared):
        # A budget of -1 used to run the seed query alone, silently.
        entity_id = researcher_prepared.split.test_entities[0]
        job = researcher_runner.build_job(researcher_prepared, "RND", entity_id,
                                          "RESEARCH", -1)
        harvester = researcher_runner.harvester_for(researcher_prepared)
        with pytest.raises(ValueError, match="num_queries must be >= 0"):
            harvester.harvest_job(job)

    def test_zero_budget_runs_the_seed_query_only(self, researcher_runner,
                                                  researcher_prepared):
        entity_id = researcher_prepared.split.test_entities[0]
        result = researcher_runner.harvest_once(researcher_prepared, "RND",
                                                entity_id, "RESEARCH", 0)
        assert result.iterations == []
        assert result.seed_page_ids


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
        results = [harvester.harvest_job(job) for job in jobs]
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
