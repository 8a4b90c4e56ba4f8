"""The async serving runner: determinism under concurrency, metrics split."""

import pytest

from repro.exec.backends import make_backend, resolve_backend
from repro.search.clients import CLIENT_SIMULATED, ClientSpec
from repro.serving import (
    ServingBackend,
    ServingRunner,
    harvest_serially,
    percentile,
    serve_jobs,
)

from tests.helpers import harvest_signature

ASPECT = "RESEARCH"
#: Fast simulated service for tests; time_scale=0 keeps the event loop
#: from actually sleeping (metrics are computed from simulated clocks).
SPEC = ClientSpec(kind=CLIENT_SIMULATED, seed=17)


def _jobs(runner, prepared, methods=("RND", "MQ"), num_queries=2):
    entities = list(prepared.split.test_entities)[:2]
    return [runner.build_job(prepared, method, entity_id, ASPECT, num_queries)
            for method in methods
            for entity_id in entities]


class TestInstantServing:
    def test_matches_serial_bit_for_bit(self, researcher_runner,
                                        researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        serial = harvester.harvest_many(
            _jobs(researcher_runner, researcher_prepared), backend="serial")
        report = ServingRunner(harvester, concurrency=4).run(
            _jobs(researcher_runner, researcher_prepared))
        assert [harvest_signature(r) for r in report.results] == \
            [harvest_signature(r) for r in serial]
        assert report.metrics()["session_latency_total"] == 0.0

    def test_registered_backend_routes_through_the_runner(
            self, researcher_runner, researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        serial = harvester.harvest_many(
            _jobs(researcher_runner, researcher_prepared), backend="serial")
        served = harvester.harvest_many(
            _jobs(researcher_runner, researcher_prepared), backend="serving")
        assert [harvest_signature(r) for r in served] == \
            [harvest_signature(r) for r in serial]


class TestSimulatedServing:
    def _report(self, runner, prepared, concurrency):
        harvester = runner.harvester_for(prepared)
        serving = ServingRunner(harvester, client=SPEC,
                                concurrency=concurrency, time_scale=0.0)
        return serving.run(_jobs(runner, prepared))

    def test_two_concurrent_runs_identical(self, researcher_runner,
                                           researcher_prepared):
        first = self._report(researcher_runner, researcher_prepared, 8)
        second = self._report(researcher_runner, researcher_prepared, 8)
        assert [harvest_signature(r) for r in first.results] == \
            [harvest_signature(r) for r in second.results]
        assert first.metrics() == second.metrics()
        assert first.client_stats == second.client_stats

    def test_metrics_independent_of_concurrency(self, researcher_runner,
                                                researcher_prepared):
        lone = self._report(researcher_runner, researcher_prepared, 1)
        packed = self._report(researcher_runner, researcher_prepared, 8)
        assert lone.metrics() == packed.metrics()
        assert [harvest_signature(r) for r in lone.results] == \
            [harvest_signature(r) for r in packed.results]

    def test_concurrent_runner_matches_serial_driver(self, researcher_runner,
                                                     researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        report = self._report(researcher_runner, researcher_prepared, 8)
        serial = harvest_serially(
            harvester, _jobs(researcher_runner, researcher_prepared),
            client=SPEC)
        assert [harvest_signature(r) for r in report.results] == \
            [harvest_signature(r) for r in serial]

    def test_retries_charged_to_the_merged_accounting(self, researcher_runner,
                                                      researcher_prepared):
        report = self._report(researcher_runner, researcher_prepared, 8)
        metrics = report.metrics()
        stats = report.client_stats
        assert metrics["queries_fired"] == \
            stats["engine_queries"] + stats["retry_queries"]
        assert metrics["retries"] == stats["retries"]

    def test_wall_clock_block_kept_apart_from_metrics(self, researcher_runner,
                                                      researcher_prepared):
        report = self._report(researcher_runner, researcher_prepared, 4)
        rendered = report.as_dict()
        assert set(rendered["wall_clock"]) == {
            "wall_seconds", "sessions_per_second", "throttle_seconds"}
        for key in rendered["wall_clock"]:
            assert key not in rendered["metrics"]
        assert rendered["metrics"]["session_latency_total"] > 0.0


class TestServeJobsAndBackend:
    def test_serve_jobs_one_shot(self, researcher_runner,
                                 researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        report = serve_jobs(harvester,
                            _jobs(researcher_runner, researcher_prepared),
                            concurrency=2)
        assert len(report.results) == 4

    @pytest.mark.parametrize("driver", [
        lambda harvester, jobs: harvester.harvest_many(jobs, backend="serial"),
        lambda harvester, jobs: harvester.harvest_many(jobs, backend="serving"),
        lambda harvester, jobs: serve_jobs(harvester, jobs,
                                           concurrency=2).results,
        lambda harvester, jobs: harvest_serially(harvester, jobs),
    ], ids=["serial", "serving-backend", "serve-jobs", "harvest-serially"])
    def test_every_driver_profiles_each_selection(self, researcher_runner,
                                                  researcher_prepared, driver):
        # The stepper records selection, so profiling sees one sample per
        # iteration whichever driver runs the sessions.
        from repro import perf

        harvester = researcher_runner.harvester_for(researcher_prepared)
        jobs = _jobs(researcher_runner, researcher_prepared)
        rec = perf.enable()
        try:
            results = driver(harvester, jobs)
        finally:
            perf.disable()
        iterations = [record for result in results
                      for record in result.iterations]
        assert iterations
        assert rec.count("selection") == len(iterations)
        assert sorted(s.seconds for s in rec.samples_for("selection")) == \
            sorted(record.selection_seconds for record in iterations)

    def test_backend_resolves_through_the_registry(self):
        backend = make_backend("serving", workers=3)
        assert isinstance(backend, ServingBackend)
        assert backend.workers == 3
        assert not backend.distributed
        assert resolve_backend("serving", workers=2).workers == 2

    def test_backend_accepts_client_parameter(self):
        backend = make_backend("serving", workers=2, client=SPEC,
                               time_scale=0.0)
        assert backend.client == SPEC

    def test_non_harvest_payloads_fall_back_to_a_plain_loop(self):
        backend = ServingBackend(workers=2)
        assert backend.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        assert backend.last_report is None

    def test_empty_job_batch(self, researcher_runner, researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        assert ServingRunner(harvester).run([]).results == []

    def test_rejects_bad_parameters(self, researcher_runner,
                                    researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        with pytest.raises(ValueError):
            ServingRunner(harvester, concurrency=0)
        with pytest.raises(ValueError):
            ServingRunner(harvester, time_scale=-1.0)
        with pytest.raises(ValueError):
            ServingBackend(workers=0)


class TestPercentile:
    def test_interpolates_linearly(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)

    def test_edge_cases(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
