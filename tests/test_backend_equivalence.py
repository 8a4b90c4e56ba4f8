"""Backend equivalence: serial == process(4), bit for bit.

The acceptance bar of the execution-backend refactor: swapping the engine
must never change a result.  Harvest runs are compared on everything
scheduling-independent (queries, result/new/seed page ids, per-job seeds)
and scenario sweeps on their full JSON rendering.
"""

import pytest

from repro.core.config import L2QConfig
from repro.corpus.synthetic import base_generation_count
from repro.eval.experiments import ExperimentScale
from repro.eval.runner import ExperimentRunner, plan_harvest_batches
from repro.eval.scenario_sweep import run_scenario_sweep
from repro.exec.backends import ProcessBackend
from repro.exec.specs import (
    _BASE_CACHE,
    _CORPUS_CACHE,
    CorpusSpec,
    HarvestJobSpec,
    HarvestTaskContext,
)

from tests.helpers import harvest_signature

TINY_SCALE = ExperimentScale(
    name="tiny",
    num_entities={"researcher": 12, "car": 10},
    pages_per_entity=8,
    num_splits=1,
    max_test_entities=2,
    max_aspects=2,
    num_queries_list=(2,),
    corpus_seed=11,
)


def _jobs(runner, prepared, methods=("L2QBAL", "RND"), num_queries=2):
    entities = list(prepared.split.test_entities)[:2]
    return [(runner.build_job(prepared, method, entity_id, "RESEARCH", num_queries))
            for method in methods
            for entity_id in entities]


class TestHarvestEquivalence:
    @pytest.fixture(scope="class")
    def serial_signatures(self, researcher_runner, researcher_prepared):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        results = harvester.harvest_many(
            _jobs(researcher_runner, researcher_prepared), backend="serial")
        return [harvest_signature(r) for r in results]

    def test_process_backend_reproduces_serial(self, researcher_runner,
                                               researcher_prepared,
                                               serial_signatures):
        harvester = researcher_runner.harvester_for(researcher_prepared)
        results = harvester.harvest_many(
            _jobs(researcher_runner, researcher_prepared),
            workers=4, backend="process")
        assert [harvest_signature(r) for r in results] == serial_signatures

    @pytest.fixture(scope="class")
    def process_backend(self):
        backend = ProcessBackend(2)
        yield backend
        backend.close()

    @pytest.mark.parametrize("method", ["RND", "L2QBAL", "L2QP", "L2QR", "LM",
                                        "AQ", "HR", "MQ", "IDEAL"])
    def test_each_method_reproduces_serial_on_process(self, researcher_runner,
                                                      researcher_prepared,
                                                      process_backend, method):
        # Every selector's jobs, shipped live to worker processes, fire the
        # same queries and gather the same pages as the serial loop.
        harvester = researcher_runner.harvester_for(researcher_prepared)
        serial = harvester.harvest_many(
            _jobs(researcher_runner, researcher_prepared, methods=(method,)),
            backend="serial")
        shipped = harvester.harvest_many(
            _jobs(researcher_runner, researcher_prepared, methods=(method,)),
            backend=process_backend)
        assert all(result.iterations for result in serial)
        assert [harvest_signature(r) for r in shipped] == \
            [harvest_signature(r) for r in serial]

    def test_job_seeds_identical_across_backends(self, researcher_runner,
                                                 researcher_prepared):
        # Seeds derive from (base_seed, split, method, entity, aspect), so
        # rebuilding the same batch yields the same seeds regardless of
        # where it will execute.
        first = [job.seed for job in _jobs(researcher_runner, researcher_prepared)]
        second = [job.seed for job in _jobs(researcher_runner, researcher_prepared)]
        assert first == second


class TestRunnerEquivalence:
    def test_process_spec_path_reproduces_serial(self, tiny_corpus, tiny_corpus_spec):
        def evaluate(backend, corpus_spec=None, workers=1):
            runner = ExperimentRunner(tiny_corpus, base_seed=5, workers=workers,
                                      backend=backend, corpus_spec=corpus_spec)
            return runner.evaluate_methods(("RND", "MQ"), num_queries_list=(2,),
                                           max_test_entities=2,
                                           aspects=("RESEARCH",))

        serial = evaluate("serial")
        process = evaluate("process", corpus_spec=tiny_corpus_spec, workers=4)
        for method in ("RND", "MQ"):
            assert serial[method].precision == process[method].precision
            assert serial[method].recall == process[method].recall
            assert serial[method].f_score == process[method].f_score

    def test_mismatched_corpus_spec_fails_loudly(self, tiny_corpus):
        # A spec describing a different corpus (wrong seed) must error in
        # the worker, not silently fold metrics against the wrong ground
        # truth.  The store stays off: publish-on-dispatch ships the *live*
        # corpus, so with a store attached there is no mismatch to catch —
        # this guard covers the rebuild path.
        from repro.exec.specs import CorpusSpec

        stale = CorpusSpec(domain="researcher",
                           num_entities=TINY_SCALE.num_entities["researcher"],
                           pages_per_entity=TINY_SCALE.pages_per_entity,
                           seed=TINY_SCALE.corpus_seed + 1)
        runner = ExperimentRunner(tiny_corpus, base_seed=5, workers=2,
                                  backend="process", corpus_spec=stale,
                                  corpus_store="off")
        with pytest.raises(ValueError, match="digest does not match"):
            runner.evaluate_methods(("RND",), num_queries_list=(2,),
                                    max_test_entities=1,
                                    aspects=("RESEARCH",))

    def test_process_backend_without_corpus_spec_is_rejected(self, tiny_corpus):
        # Workers rebuild the corpus from its spec; there is no path that
        # ships the live corpus instead, so the runner refuses up front.
        with pytest.raises(ValueError, match="corpus_spec"):
            ExperimentRunner(tiny_corpus, base_seed=5, backend="process")
        # Several workers without a named backend mean the process pool.
        with pytest.raises(ValueError, match="corpus_spec"):
            ExperimentRunner(tiny_corpus, base_seed=5, workers=2)

    def test_process_backend_instance_without_corpus_spec_is_rejected(
            self, tiny_corpus):
        backend = ProcessBackend(2)
        try:
            with pytest.raises(ValueError, match="corpus_spec"):
                ExperimentRunner(tiny_corpus, base_seed=5, backend=backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("kwargs", [
        {}, {"workers": 1}, {"backend": "serial", "workers": 4},
    ], ids=["default", "one-worker", "serial-named"])
    def test_in_process_runner_needs_no_corpus_spec(self, tiny_corpus,
                                                    kwargs):
        runner = ExperimentRunner(tiny_corpus, base_seed=5, **kwargs)
        assert runner.backend.name == "serial"
        assert not runner.backend.distributed

    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        return TINY_SCALE.corpus_for("researcher")

    @pytest.fixture(scope="class")
    def tiny_corpus_spec(self):
        return TINY_SCALE.corpus_spec_for("researcher")


class TestFetchAccountingEquivalence:
    """The PR 3 follow-up bugfix: worker-side fetch statistics must not be
    lost by the process backend — every backend's results merge to the same
    batch-level accounting."""

    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        return TINY_SCALE.corpus_for("researcher")

    def _merged(self, corpus, backend, workers):
        from repro.search.engine import merge_run_accounting

        runner = ExperimentRunner(corpus, base_seed=5)
        prepared = runner.prepare(runner.default_split(0))
        jobs = _jobs(runner, prepared)
        results = runner.harvester_for(prepared).harvest_many(
            jobs, workers=workers, backend=backend)
        engine_stats = prepared.engine.fetch_statistics
        return merge_run_accounting(
            [r.fetch_accounting for r in results]), engine_stats

    def test_merged_accounting_identical_across_backends(self, tiny_corpus):
        serial, _ = self._merged(tiny_corpus, "serial", 1)
        assert serial.queries_fired > 0
        merged, _ = self._merged(tiny_corpus, "process", 4)
        assert merged == serial

    def test_process_backend_ships_statistics_home(self, tiny_corpus):
        # The orchestrator's engine never fired a query (workers did), yet
        # the merged per-run accounts reproduce the serial engine's view.
        serial, serial_engine = self._merged(tiny_corpus, "serial", 1)
        merged, orchestrator_engine = self._merged(tiny_corpus, "process", 4)
        assert orchestrator_engine.queries_fired == 0
        assert merged.queries_fired == serial_engine.queries_fired
        assert merged.pages_fetched == serial_engine.pages_fetched
        assert merged.cache_hits == serial_engine.cache_hits
        assert merged.cache_misses == serial_engine.cache_misses
        assert merged.queries_by_entity == serial_engine.queries_by_entity

    def test_runner_evaluation_exposes_merged_statistics(self, tiny_corpus):
        def fetch_stats(backend, workers=1, corpus_spec=None):
            runner = ExperimentRunner(tiny_corpus, base_seed=5, workers=workers,
                                      backend=backend, corpus_spec=corpus_spec)
            evaluation = runner.evaluate_methods_detailed(
                ("RND", "L2QBAL"), num_queries_list=(2,),
                max_test_entities=2, aspects=("RESEARCH",))
            return evaluation.fetch_statistics

        serial = fetch_stats("serial")
        assert serial.queries_fired > 0
        assert fetch_stats("process", workers=4,
                           corpus_spec=TINY_SCALE.corpus_spec_for(
                               "researcher")) == serial


def _context(split_index: int) -> HarvestTaskContext:
    return HarvestTaskContext(
        corpus=CorpusSpec(domain="researcher", num_entities=8,
                          pages_per_entity=4, seed=1),
        config=L2QConfig(),
        base_seed=5,
        split_index=split_index,
    )


def _specs(split_index: int, count: int):
    return [HarvestJobSpec(method="RND", entity_id=f"e{i}", aspect="A",
                           num_queries=2, seed=split_index * 100 + i)
            for i in range(count)]


class TestPlanHarvestBatches:
    """The split-first sharding policy, pinned deterministically."""

    def test_one_batch_per_split_when_workers_do_not_exceed_splits(self):
        payloads = [(_context(i), _specs(i, 6)) for i in range(4)]
        batches = plan_harvest_batches(payloads, workers=2)
        assert len(batches) == 4
        for index, batch in enumerate(batches):
            assert batch.context.split_index == index
            assert list(batch.specs) == payloads[index][1]

    def test_workers_exceeding_splits_cut_splits_into_page_batches(self):
        payloads = [(_context(i), _specs(i, 6)) for i in range(2)]
        batches = plan_harvest_batches(payloads, workers=4)
        # ceil(4 workers / 2 splits) = 2 contiguous pieces per split.
        assert len(batches) == 4
        for index in range(2):
            pieces = [b for b in batches if b.context.split_index == index]
            assert len(pieces) == 2
            reassembled = [spec for piece in pieces for spec in piece.specs]
            assert reassembled == payloads[index][1]

    def test_batches_stay_split_major_and_in_spec_order(self):
        payloads = [(_context(i), _specs(i, 5)) for i in range(3)]
        batches = plan_harvest_batches(payloads, workers=7)
        flattened = [spec for batch in batches for spec in batch.specs]
        assert flattened == [spec for _, specs in payloads for spec in specs]
        assert [b.context.split_index for b in batches] == \
            sorted(b.context.split_index for b in batches)

    def test_tiny_splits_never_produce_empty_batches(self):
        payloads = [(_context(0), _specs(0, 1)), (_context(1), [])]
        batches = plan_harvest_batches(payloads, workers=8)
        assert len(batches) == 1
        assert all(batch.specs for batch in batches)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            plan_harvest_batches([(_context(0), _specs(0, 2))], workers=0)

    def test_batches_reserve_a_runtime_slot_per_split(self):
        # The at-most-once preparation guarantee is structural: every batch
        # tells the worker how many distinct split runtimes are in flight,
        # so the worker-side cache can never evict one it still needs.
        payloads = [(_context(i), _specs(i, 6)) for i in range(6)]
        batches = plan_harvest_batches(payloads, workers=3)
        assert all(batch.runtime_slots == 6 for batch in batches)

    def test_runtime_cache_reserve_grows_but_never_shrinks(self):
        from repro.exec.specs import _ProcessLocalCache

        cache = _ProcessLocalCache(capacity=4)
        cache.reserve(10)
        assert cache.capacity == 10
        cache.reserve(2)
        assert cache.capacity == 10
        built = []
        for i in range(10):
            cache.get_or_build(f"k{i}", lambda i=i: built.append(i) or i)
        # All ten keys fit: re-asking for the first builds nothing new.
        cache.get_or_build("k0", lambda: built.append("rebuilt"))
        assert "rebuilt" not in built


class TestSplitFirstSharding:
    """Tentpole acceptance: split-first distributed evaluation — bit-identical
    to serial, with each worker preparing each split at most once."""

    METHODS = ("RND", "MQ")

    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        return TINY_SCALE.corpus_for("researcher")

    @pytest.fixture(scope="class")
    def tiny_corpus_spec(self):
        return TINY_SCALE.corpus_spec_for("researcher")

    def _split_specs(self, runner, num_splits=2):
        out = []
        for index in range(num_splits):
            split = runner.default_split(index)
            entities = list(split.test_entities)[:2]
            out.append((split, [
                runner.job_spec(split, method, entity_id, "RESEARCH", 2)
                for method in self.METHODS
                for entity_id in entities
            ]))
        return out

    def test_split_first_results_bit_identical_to_serial(self, tiny_corpus,
                                                         tiny_corpus_spec):
        serial_runner = ExperimentRunner(tiny_corpus, base_seed=5)
        split_specs = self._split_specs(serial_runner)
        serial = serial_runner._run_all_splits(split_specs, 1.0)

        process_runner = ExperimentRunner(tiny_corpus, base_seed=5, workers=2,
                                          backend="process",
                                          corpus_spec=tiny_corpus_spec)
        process = process_runner._run_all_splits(split_specs, 1.0)
        assert [[harvest_signature(r) for r in split] for split in process] \
            == [[harvest_signature(r) for r in split] for split in serial]

    def test_each_worker_prepares_each_split_at_most_once(self, tiny_corpus,
                                                          tiny_corpus_spec):
        runner = ExperimentRunner(tiny_corpus, base_seed=5, workers=2,
                                  backend="process",
                                  corpus_spec=tiny_corpus_spec)
        runner.evaluate_methods(self.METHODS, num_queries_list=(2,),
                                num_splits=2, max_test_entities=2,
                                aspects=("RESEARCH",))
        outcomes = runner.last_batch_outcomes
        # workers (2) <= splits (2): exactly one batch per split, so every
        # split is prepared exactly once in the whole cluster.
        assert [o.split_index for o in outcomes] == [0, 1]
        builds_per_split: dict = {}
        builds_per_worker_split: dict = {}
        for outcome in outcomes:
            builds_per_split[outcome.split_index] = \
                builds_per_split.get(outcome.split_index, 0) + outcome.runtime_builds
            key = (outcome.worker_pid, outcome.split_index)
            builds_per_worker_split[key] = \
                builds_per_worker_split.get(key, 0) + outcome.runtime_builds
        assert all(count == 1 for count in builds_per_split.values())
        assert all(count <= 1 for count in builds_per_worker_split.values())

    def test_workers_exceeding_splits_fall_back_to_page_batches(
            self, tiny_corpus, tiny_corpus_spec):
        serial = ExperimentRunner(tiny_corpus, base_seed=5).evaluate_methods(
            self.METHODS, num_queries_list=(2,), num_splits=1,
            max_test_entities=2, aspects=("RESEARCH",))
        runner = ExperimentRunner(tiny_corpus, base_seed=5, workers=4,
                                  backend="process",
                                  corpus_spec=tiny_corpus_spec)
        process = runner.evaluate_methods(self.METHODS, num_queries_list=(2,),
                                          num_splits=1, max_test_entities=2,
                                          aspects=("RESEARCH",))
        outcomes = runner.last_batch_outcomes
        # The single split was cut into several stealable page batches ...
        assert len(outcomes) > 1
        assert {o.split_index for o in outcomes} == {0}
        # ... yet a worker executing several of them prepared the split once.
        builds: dict = {}
        for outcome in outcomes:
            key = (outcome.worker_pid, outcome.split_index)
            builds[key] = builds.get(key, 0) + outcome.runtime_builds
        assert all(count <= 1 for count in builds.values())
        # And the fallback is still bit-identical to serial.
        for method in self.METHODS:
            assert process[method].precision == serial[method].precision
            assert process[method].recall == serial[method].recall
            assert process[method].f_score == serial[method].f_score

    def test_multi_split_evaluation_identical_across_backends(
            self, tiny_corpus, tiny_corpus_spec):
        def evaluate(backend, workers=1, corpus_spec=None):
            runner = ExperimentRunner(tiny_corpus, base_seed=5, workers=workers,
                                      backend=backend, corpus_spec=corpus_spec)
            return runner.evaluate_methods_detailed(
                self.METHODS, num_queries_list=(2,), num_splits=2,
                max_test_entities=2, aspects=("RESEARCH",))

        serial = evaluate("serial")
        process = evaluate("process", workers=4, corpus_spec=tiny_corpus_spec)
        for method in self.METHODS:
            assert process.normalized[method].f_score == \
                serial.normalized[method].f_score
            assert process.absolute[method].precision == \
                serial.absolute[method].precision
        # Merged fetch accounting survives split-first sharding unchanged.
        assert serial.fetch_statistics.queries_fired > 0
        assert process.fetch_statistics == serial.fetch_statistics


class TestWorkerPerfShipping:
    """Worker-side phase timings must survive the process boundary: every
    batch outcome ships its per-phase aggregates home, and the orchestrator
    folds them into its active recorder."""

    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        return TINY_SCALE.corpus_for("researcher")

    def test_distributed_run_folds_worker_phases_home(self, tiny_corpus):
        from repro import perf

        rec = perf.enable()
        try:
            runner = ExperimentRunner(
                tiny_corpus, base_seed=5, workers=2, backend="process",
                corpus_spec=TINY_SCALE.corpus_spec_for("researcher"))
            runner.evaluate_methods(("RND",), num_queries_list=(2,),
                                    num_splits=2, max_test_entities=2,
                                    aspects=("RESEARCH",))
        finally:
            perf.disable()
        outcomes = runner.last_batch_outcomes
        assert outcomes
        assert all(o.perf_phases for o in outcomes)
        # The orchestrator never harvested anything itself, yet its recorder
        # counts exactly the harvests the workers timed.
        shipped_harvests = sum(o.perf_phases["harvest"]["count"]
                               for o in outcomes)
        assert shipped_harvests > 0
        assert rec.count("harvest") == shipped_harvests
        assert rec.mean("harvest") > 0.0
        meta = rec.samples_for("harvest")[0].meta_dict()
        assert meta["worker_pid"] in {o.worker_pid for o in outcomes}
        assert "split" in meta

    def test_disabled_profiling_ships_nothing(self, tiny_corpus):
        from repro import perf

        perf.disable()
        runner = ExperimentRunner(
            tiny_corpus, base_seed=5, workers=2, backend="process",
            corpus_spec=TINY_SCALE.corpus_spec_for("researcher"))
        runner.evaluate_methods(("RND",), num_queries_list=(2,),
                                num_splits=2, max_test_entities=2,
                                aspects=("RESEARCH",))
        assert runner.last_batch_outcomes
        assert all(o.perf_phases == {} for o in runner.last_batch_outcomes)


class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def sweep_kwargs(self):
        return dict(scale=TINY_SCALE, scenarios=("zipf-skew", "near-duplicates"),
                    methods=("L2QBAL",), domains=("researcher",), num_queries=2)

    @pytest.fixture(scope="class")
    def serial_json(self, sweep_kwargs):
        return run_scenario_sweep(backend="serial", **sweep_kwargs).to_json()

    def test_sweep_digest_equal_across_backends(self, sweep_kwargs, serial_json):
        swept = run_scenario_sweep(backend="process", workers=4,
                                   **sweep_kwargs).to_json()
        assert swept == serial_json


class TestSharedCorpusStore:
    """PR 7 tentpole acceptance: with a published store, workers *attach*
    to the orchestrator's corpus + index instead of rebuilding — and the
    attached run is bit-identical to both the rebuild run and serial."""

    METHODS = ("RND", "MQ")

    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        return TINY_SCALE.corpus_for("researcher")

    @pytest.fixture(scope="class")
    def tiny_corpus_spec(self):
        return TINY_SCALE.corpus_spec_for("researcher")

    def _evaluate(self, corpus, backend, *, workers=1, corpus_spec=None,
                  corpus_store="off"):
        runner = ExperimentRunner(corpus, base_seed=5, workers=workers,
                                  backend=backend, corpus_spec=corpus_spec,
                                  corpus_store=corpus_store)
        try:
            evaluation = runner.evaluate_methods_detailed(
                self.METHODS, num_queries_list=(2,), num_splits=2,
                max_test_entities=2, aspects=("RESEARCH",))
        finally:
            runner.release_store()
        return runner, evaluation

    def _signatures(self, runner):
        return sorted(
            harvest_signature(r)
            for outcome in runner.last_batch_outcomes
            for r in outcome.results)

    def test_attach_bit_identical_to_rebuild_and_serial(
            self, tiny_corpus, tiny_corpus_spec):
        serial_runner, serial = self._evaluate(tiny_corpus, "serial")
        rebuild_runner, rebuild = self._evaluate(
            tiny_corpus, "process", workers=2, corpus_spec=tiny_corpus_spec,
            corpus_store="off")
        attach_runner, attach = self._evaluate(
            tiny_corpus, "process", workers=2, corpus_spec=tiny_corpus_spec,
            corpus_store="auto")
        for method in self.METHODS:
            for other in (rebuild, attach):
                assert other.normalized[method].precision == \
                    serial.normalized[method].precision
                assert other.normalized[method].recall == \
                    serial.normalized[method].recall
                assert other.normalized[method].f_score == \
                    serial.normalized[method].f_score
        assert attach.fetch_statistics == serial.fetch_statistics
        # Bit-for-bit: every harvest (queries, page-id trajectories, seeds)
        # of the attached run matches the rebuild run exactly.  (The serial
        # path runs without batches, so it is tied in via the metric and
        # fetch-statistics equalities above.)
        del serial_runner
        reference = self._signatures(rebuild_runner)
        assert len(reference) > 0
        assert self._signatures(attach_runner) == reference

    def test_store_eliminates_worker_index_rebuilds(self, tiny_corpus,
                                                    tiny_corpus_spec):
        rebuild_runner, _ = self._evaluate(
            tiny_corpus, "process", workers=2, corpus_spec=tiny_corpus_spec,
            corpus_store="off")
        attach_runner, _ = self._evaluate(
            tiny_corpus, "process", workers=2, corpus_spec=tiny_corpus_spec,
            corpus_store="auto")
        rebuild_outcomes = rebuild_runner.last_batch_outcomes
        attach_outcomes = attach_runner.last_batch_outcomes
        assert rebuild_outcomes and attach_outcomes
        # Store off: every worker rebuilt its inverted index from pages.
        assert all(not o.attached for o in rebuild_outcomes)
        assert sum(o.index_builds for o in rebuild_outcomes) > 0
        # Store on: zero rebuilds anywhere in the cluster — every runtime
        # adopted the published CSR snapshot.
        assert all(o.attached for o in attach_outcomes)
        assert sum(o.index_builds for o in attach_outcomes) == 0

    def test_serial_backend_ignores_store_publication(self, tiny_corpus,
                                                      tiny_corpus_spec):
        # The serial backend shares the live corpus already; the store flag
        # must be a no-op there, not an error.
        runner, published = self._evaluate(tiny_corpus, "serial",
                                           corpus_spec=tiny_corpus_spec,
                                           corpus_store="auto")
        _, serial = self._evaluate(tiny_corpus, "serial")
        assert runner.last_batch_outcomes == []
        for method in self.METHODS:
            assert published.normalized[method].f_score == \
                serial.normalized[method].f_score

    def test_store_off_flag_disables_publication(self, tiny_corpus,
                                                 tiny_corpus_spec):
        runner, _ = self._evaluate(
            tiny_corpus, "process", workers=2, corpus_spec=tiny_corpus_spec,
            corpus_store="off")
        assert all(not o.attached for o in runner.last_batch_outcomes)

    def test_batches_carry_distinct_base_slot_counts(self):
        # Dispatch computes how many distinct base corpora are in flight so
        # workers can grow their caches *before* the first build.
        payloads = [(_context(i), _specs(i, 4)) for i in range(3)]
        batches = plan_harvest_batches(payloads, workers=3)
        # All three contexts share one CorpusSpec → one distinct base.
        assert all(batch.base_slots == 1 for batch in batches)


class TestSharedBaseGeneration:
    def test_sweep_generates_one_base_per_domain(self, sweep_result_counted):
        generations, result = sweep_result_counted
        # One domain swept with two scenarios: exactly one base generation;
        # the clean corpus and both perturbed corpora realise from it.
        assert generations == 1
        assert len(result.cells_by_domain["researcher"]) == 2

    def test_perturbed_digests_differ_from_clean(self, sweep_result_counted):
        _, result = sweep_result_counted
        clean = result.clean_by_domain["researcher"]["corpus_digest"]
        for cell in result.cells_by_domain["researcher"].values():
            assert cell.corpus_digest != clean

    @pytest.fixture(scope="class")
    def sweep_result_counted(self):
        # The sweep builds its corpora through the process-local caches, so
        # a base an earlier test cached would read as zero generations.
        _BASE_CACHE._entries.clear()
        _CORPUS_CACHE._entries.clear()
        before = base_generation_count()
        result = run_scenario_sweep(
            scale=TINY_SCALE, scenarios=("zipf-skew", "near-duplicates"),
            methods=("MQ",), domains=("researcher",), num_queries=2)
        return base_generation_count() - before, result


class TestClassifierSuiteAttach:
    """Trained suites ship through the corpus store: with a store attached,
    no worker batch ever retrains an aspect classifier, and the attached
    run is identical to retraining everywhere."""

    METHODS = ("RND", "MQ")

    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        return TINY_SCALE.corpus_for("researcher")

    @pytest.fixture(scope="class")
    def tiny_corpus_spec(self):
        return TINY_SCALE.corpus_spec_for("researcher")

    def _evaluate(self, corpus, backend, *, workers=1, corpus_spec=None,
                  corpus_store="off"):
        runner = ExperimentRunner(corpus, base_seed=5, workers=workers,
                                  backend=backend, corpus_spec=corpus_spec,
                                  corpus_store=corpus_store)
        try:
            evaluation = runner.evaluate_methods(
                self.METHODS, num_queries_list=(2,), num_splits=2,
                max_test_entities=2, aspects=("RESEARCH",))
        finally:
            runner.release_store()
        return runner, evaluation

    def test_attached_workers_never_retrain(self, tiny_corpus,
                                            tiny_corpus_spec):
        runner, _ = self._evaluate(
            tiny_corpus, "process", workers=2, corpus_spec=tiny_corpus_spec,
            corpus_store="auto")
        outcomes = runner.last_batch_outcomes
        assert outcomes
        assert all(o.classifier_trainings == 0 for o in outcomes)
        assert all(o.classifier_attached for o in outcomes)

    def test_store_off_workers_train_per_split(self, tiny_corpus,
                                               tiny_corpus_spec):
        runner, _ = self._evaluate(
            tiny_corpus, "process", workers=2, corpus_spec=tiny_corpus_spec,
            corpus_store="off")
        outcomes = runner.last_batch_outcomes
        assert outcomes
        assert all(not o.classifier_attached for o in outcomes)
        # Every runtime build trains its split's suite from scratch.
        assert sum(o.classifier_trainings for o in outcomes) == \
            sum(o.runtime_builds for o in outcomes) > 0

    def test_attached_metrics_identical_across_backends(self, tiny_corpus,
                                                        tiny_corpus_spec):
        _, serial = self._evaluate(tiny_corpus, "serial")
        _, attached = self._evaluate(
            tiny_corpus, "process", workers=4, corpus_spec=tiny_corpus_spec,
            corpus_store="auto")
        for method in self.METHODS:
            assert attached[method].precision == serial[method].precision
            assert attached[method].recall == serial[method].recall
            assert attached[method].f_score == serial[method].f_score
