"""Backend equivalence: serial == process, bit for bit.

The acceptance bar of the execution backends: swapping the engine must
never change a result.  Harvest runs are compared on everything
scheduling-independent (queries, result/new/seed page ids, per-job seeds),
cells on their rows, metric blocks and fetch accounting, and scenario
sweeps on their full JSON rendering.
"""

from dataclasses import replace

import pytest

from repro import perf
from repro.corpus.synthetic import base_generation_count
from repro.eval.experiments import ExperimentScale
from repro.eval.runner import ExperimentRunner
from repro.eval.scenario_sweep import (
    ScenarioSweep,
    execute_sweep_cell,
    figure_cell_specs,
    publish_base_stores,
    publish_domain_store,
    run_cells,
)
from repro.exec.backends import ProcessBackend, SerialBackend
from repro.exec.specs import _BASE_CACHE, _CORPUS_CACHE, CorpusSpec, _ProcessLocalCache
from repro.search.engine import SearchEngine
from repro.store import release

from tests.helpers import harvest_signature, run_split_specs

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


#: Every selector the runner builds.
ALL_METHODS = ("RND", "L2QBAL", "L2QP", "L2QR", "LM", "AQ", "HR", "MQ", "IDEAL")


def _jobs(runner, prepared, methods=("L2QBAL", "RND"), num_queries=2):
    entities = list(prepared.split.test_entities)[:2]
    return [(runner.build_job(prepared, method, entity_id, "RESEARCH", num_queries))
            for method in methods
            for entity_id in entities]


def _tiny_cells(methods=("RND", "MQ"), num_splits=1, domains=("researcher",)):
    """Clean cells of TINY_SCALE over each domain's first aspect, budget 2."""
    scale = replace(TINY_SCALE, num_splits=num_splits, max_aspects=1)
    return figure_cell_specs(scale, domains, methods, (2,))


def _probe_cell(spec):
    """Run one cell in this process: ``(result, index builds, index
    attaches)`` summed over the engines the cell created."""
    engines = []
    init = SearchEngine.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    SearchEngine.__init__ = tracked
    try:
        result = execute_sweep_cell(spec)
    finally:
        SearchEngine.__init__ = init
    return (result, sum(engine.index_builds for engine in engines),
            sum(engine.index_attaches for engine in engines))


def _probe_on_process(cells, corpus_store):
    """:func:`_probe_cell` of every cell on two process workers, each cell
    shipped with its base's store when ``corpus_store`` publishes one."""
    backend = ProcessBackend(2)
    handles = publish_base_stores(backend, cells, corpus_store)
    try:
        shipped = [replace(cell, corpus=replace(
            cell.corpus, store_handle=handles.get(cell.corpus.base_key())))
            for cell in cells]
        return backend.map_tasks(_probe_cell, shipped)
    finally:
        for handle in handles.values():
            release(handle)
        backend.close()


class TestHarvestEquivalence:
    """Every selector's jobs, shipped as specs to process workers, fire the
    same queries and gather the same pages as the serial loop."""

    @pytest.fixture(scope="class")
    def runs(self, researcher_corpus):
        # One dispatch for all nine methods on each side.
        spec = CorpusSpec(domain="researcher", num_entities=16,
                          pages_per_entity=10, seed=11)
        return (run_split_specs(researcher_corpus, ALL_METHODS),
                run_split_specs(researcher_corpus, ALL_METHODS,
                                corpus_spec=spec))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_each_method_reproduces_serial_on_process(self, runs, method):
        serial, process = ([r for r in results if r.selector_name == method]
                           for results in runs)
        assert len(serial) == 2
        assert all(result.iterations for result in serial)
        assert [harvest_signature(r) for r in process] == \
            [harvest_signature(r) for r in serial]

    def test_job_seeds_identical_across_backends(self, researcher_runner,
                                                 researcher_prepared):
        # Seeds derive from (base_seed, split, method, entity, aspect), so
        # rebuilding the same batch yields the same seeds regardless of
        # where it will execute.
        first = [job.seed for job in _jobs(researcher_runner, researcher_prepared)]
        second = [job.seed for job in _jobs(researcher_runner, researcher_prepared)]
        assert first == second


class TestCellEquivalence:
    """A cell's rows, metric blocks and fetch accounting are the same on
    every backend and worker count."""

    def test_process_cells_reproduce_serial(self):
        cells = _tiny_cells(domains=("researcher", "car"))
        serial = run_cells(cells, corpus_store="off")
        process = run_cells(cells, backend="process", workers=4,
                            corpus_store="off")
        assert all(result.rows for result in serial)
        assert process == serial

    def test_multi_split_cells_identical_across_backends(self):
        cells = _tiny_cells(num_splits=2)
        (serial,) = run_cells(cells, corpus_store="off")
        (process,) = run_cells(cells, backend="process", workers=2,
                               corpus_store="off")
        assert {row.split for row in serial.rows} == {0, 1}
        assert process.rows == serial.rows
        assert process.metrics == serial.metrics
        # Merged fetch accounting crosses the process boundary unchanged.
        assert serial.fetch["queries_fired"] > 0
        assert process.fetch == serial.fetch


class TestFetchAccountingEquivalence:
    """The PR 3 follow-up bugfix: worker-side fetch statistics must not be
    lost by the process backend — every backend's results merge to the same
    batch-level accounting."""

    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        return TINY_SCALE.corpus_for("researcher")

    def _merged(self, corpus, corpus_spec=None):
        from repro.search.engine import merge_run_accounting

        results = run_split_specs(corpus, ("L2QBAL", "RND"),
                                  corpus_spec=corpus_spec)
        return merge_run_accounting([r.fetch_accounting for r in results])

    def test_merged_accounting_identical_across_backends(self, tiny_corpus):
        serial = self._merged(tiny_corpus)
        assert serial.queries_fired > 0
        merged = self._merged(tiny_corpus, TINY_SCALE.corpus_spec_for("researcher"))
        assert merged == serial

    def test_process_backend_ships_statistics_home(self, tiny_corpus):
        # The workers fired every query, yet the merged per-run accounts
        # reproduce what one serial engine counted for the same jobs.
        runner = ExperimentRunner(tiny_corpus, base_seed=5)
        prepared = runner.prepare(runner.default_split(0))
        harvester = runner.harvester_for(prepared)
        for job in _jobs(runner, prepared):
            harvester.harvest_job(job)
        serial_engine = prepared.engine.fetch_statistics
        merged = self._merged(tiny_corpus, TINY_SCALE.corpus_spec_for("researcher"))
        assert merged.queries_fired == serial_engine.queries_fired > 0
        assert merged.pages_fetched == serial_engine.pages_fetched
        assert merged.cache_hits == serial_engine.cache_hits
        assert merged.cache_misses == serial_engine.cache_misses
        assert merged.queries_by_entity == serial_engine.queries_by_entity

    def test_runner_evaluation_exposes_merged_statistics(self, tiny_corpus):
        # An in-process evaluation and the same cell on process workers
        # merge their runs' accounting to the same totals.
        evaluation = ExperimentRunner(tiny_corpus).evaluate_methods_detailed(
            ("RND", "L2QBAL"), num_queries_list=(2,), max_test_entities=2,
            aspects=("RESEARCH",))
        assert evaluation.fetch_statistics.queries_fired > 0
        (cell,) = run_cells(_tiny_cells(("RND", "L2QBAL")), backend="process",
                            workers=2, corpus_store="off")
        assert cell.fetch == evaluation.fetch_statistics.as_dict()


class TestProcessLocalCache:
    def test_runtime_cache_reserve_grows_but_never_shrinks(self):
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


class TestWorkerPerfShipping:
    """Worker-side phase timings must survive the process boundary: every
    cell ships its per-phase aggregates home, and the orchestrator folds
    them into its active recorder."""

    def test_distributed_run_folds_worker_phases_home(self):
        rec = perf.enable()
        try:
            results = run_cells(_tiny_cells(num_splits=2), backend="process",
                                workers=2, corpus_store="off")
        finally:
            perf.disable()
        assert all(result.perf_phases for result in results)
        # The orchestrator never harvested anything itself, yet its recorder
        # counts exactly the harvests the workers timed.
        shipped_harvests = sum(result.perf_phases["harvest"]["count"]
                               for result in results)
        assert shipped_harvests > 0
        assert rec.count("harvest") == shipped_harvests
        assert rec.mean("harvest") > 0.0
        meta = rec.samples_for("harvest")[0].meta_dict()
        assert meta["domain"] == "researcher"
        assert meta["scenario"] == "clean"

    def test_disabled_profiling_ships_nothing(self):
        perf.disable()
        results = run_cells(_tiny_cells(num_splits=2), backend="process",
                            workers=2, corpus_store="off")
        assert results
        assert all(result.perf_phases == {} for result in results)

class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def sweep_kwargs(self):
        return dict(scale=TINY_SCALE, scenarios=("zipf-skew", "near-duplicates"),
                    methods=("L2QBAL",), domains=("researcher",), num_queries=2)

    @pytest.fixture(scope="class")
    def serial_json(self, sweep_kwargs):
        return ScenarioSweep(backend="serial", **sweep_kwargs).run().to_json()

    def test_sweep_digest_equal_across_backends(self, sweep_kwargs, serial_json):
        swept = ScenarioSweep(backend="process", workers=4,
                              **sweep_kwargs).run().to_json()
        assert swept == serial_json


class TestSharedCorpusStore:
    """With a published store, worker cells *attach* the corpus and its
    index instead of rebuilding them — and the attached run is
    bit-identical to both the rebuild run and serial."""

    METHODS = ("RND", "MQ")

    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        return TINY_SCALE.corpus_for("researcher")

    def test_attach_bit_identical_to_rebuild_and_serial(self, tiny_corpus):
        cells = _tiny_cells(self.METHODS, num_splits=2)
        serial = run_cells(cells, corpus_store="off")
        rebuild = run_cells(cells, backend="process", workers=2,
                            corpus_store="off")
        attach = run_cells(cells, backend="process", workers=2,
                           corpus_store="mmap")
        assert serial[0].rows
        assert rebuild == serial
        assert attach == serial
        # Bit-for-bit at the harvest level too: queries and page-id
        # trajectories of workers harvesting on an attached corpus match
        # those of workers that rebuilt it.
        spec = TINY_SCALE.corpus_spec_for("researcher")
        handle = publish_domain_store(cells[0], "mmap")
        try:
            attached = run_split_specs(
                tiny_corpus, ("L2QBAL", "HR", "RND"),
                corpus_spec=replace(spec, store_handle=handle))
        finally:
            release(handle)
        rebuilt = run_split_specs(tiny_corpus, ("L2QBAL", "HR", "RND"),
                                  corpus_spec=spec)
        assert [harvest_signature(r) for r in attached] == \
            [harvest_signature(r) for r in rebuilt]

    def test_store_eliminates_worker_index_rebuilds(self):
        cells = _tiny_cells(self.METHODS)
        rebuilt = _probe_on_process(cells, "off")
        attached = _probe_on_process(cells, "mmap")
        # Store off: every worker cell indexed its corpus from pages.
        assert all(builds > 0 and attaches == 0
                   for _, builds, attaches in rebuilt)
        # Store on: zero index builds anywhere — every engine adopted the
        # published CSR snapshot.
        assert all(builds == 0 and attaches > 0
                   for _, builds, attaches in attached)
        assert [result for result, _, _ in attached] == \
            [result for result, _, _ in rebuilt]

    def test_serial_backend_ignores_store_publication(self):
        # The serial backend shares the process-local corpus already; the
        # store flag must be a no-op there, not an error.
        cells = _tiny_cells(self.METHODS)
        assert publish_base_stores(SerialBackend(), cells, "auto") == {}
        assert run_cells(cells, corpus_store="auto") == \
            run_cells(cells, corpus_store="off")

    def test_store_off_flag_disables_publication(self):
        backend = ProcessBackend(2)
        try:
            assert publish_base_stores(backend, _tiny_cells(), "off") == {}
            assert backend._pool is None
        finally:
            backend.close()

    def test_cells_carry_distinct_base_slot_counts(self):
        # Cells say how many distinct base corpora are in flight, so
        # workers can grow their caches *before* the first build.
        cells = figure_cell_specs(TINY_SCALE, ("researcher", "car"), ("RND",),
                                  (2,), fractions=(0.5, 1.0))
        assert len(cells) == 4
        assert all(cell.base_slots == 2 for cell in cells)

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
        result = ScenarioSweep(
            scale=TINY_SCALE, scenarios=("zipf-skew", "near-duplicates"),
            methods=("MQ",), domains=("researcher",), num_queries=2).run()
        return base_generation_count() - before, result


class TestClassifierSuiteAttach:
    """Trained suites ship through the corpus store: with a store attached,
    no worker cell ever retrains an aspect classifier, and the attached
    run is identical to retraining everywhere."""

    METHODS = ("RND", "MQ")

    def _profiled(self, corpus_store):
        """Two-split cells on process workers, with profiling on."""
        rec = perf.enable()
        try:
            results = run_cells(_tiny_cells(self.METHODS, num_splits=2),
                                backend="process", workers=2,
                                corpus_store=corpus_store)
        finally:
            perf.disable()
        return results, rec

    def test_attached_workers_never_retrain(self):
        results, rec = self._profiled("mmap")
        assert results
        for result in results:
            phases = result.perf_phases
            assert phases["corpus-attach"]["count"] == 1
            assert phases["classifier-attach"]["count"] == 2
            assert "corpus-rebuild" not in phases
            assert "classifier-train" not in phases
        # The publisher trained each split's suite once, in this process.
        assert rec.count("classifier-train") == 2

    def test_store_off_workers_train_per_split(self):
        results, _ = self._profiled("off")
        assert results
        for result in results:
            phases = result.perf_phases
            assert phases["classifier-train"]["count"] == 2
            assert "classifier-attach" not in phases
            assert "corpus-attach" not in phases

    def test_attached_metrics_identical_across_backends(self):
        series = ExperimentRunner(TINY_SCALE.corpus_for("researcher")) \
            .evaluate_methods(self.METHODS, num_queries_list=(2,),
                              num_splits=2, max_test_entities=2,
                              aspects=("RESEARCH",))
        (attached,) = run_cells(_tiny_cells(self.METHODS, num_splits=2),
                                backend="process", workers=4,
                                corpus_store="mmap")
        for method in self.METHODS:
            assert attached.metrics[method] == {
                "precision": series[method].precision[2],
                "recall": series[method].recall[2],
                "f_score": series[method].f_score[2],
            }
