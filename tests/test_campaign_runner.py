"""Tests for the campaign runner: resume-safe dispatch + pure folding."""

import json

import pytest

from repro.campaign import (
    STORES_NAME,
    CampaignRunner,
    CampaignSpec,
    clean_stale_stores,
    fold_matrices,
    register_store_handles,
)
from repro.eval.experiments import ExperimentScale
from repro.eval.scenario_sweep import ScenarioSweep
from repro.exec.backends import SerialBackend
from repro.store import StoreHandle

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


def tiny_spec(**overrides):
    base = dict(name="unit", scale=TINY_SCALE, domains=("car",),
                scenarios=("zipf-skew",), methods=("MQ", "RND"),
                seeds=(11,), num_queries=2)
    base.update(overrides)
    return CampaignSpec(**base)


class TestRunAndFold:
    def test_uninterrupted_run_matches_scenario_sweep(self, tmp_path):
        runner = CampaignRunner(tmp_path / "camp", spec=tiny_spec())
        report = runner.run()
        assert report.complete
        assert report.executed == report.total == 2
        document = json.loads(report.matrices_path.read_text())
        sweep = ScenarioSweep(scale=TINY_SCALE, scenarios=("zipf-skew",),
                              methods=("MQ", "RND"), domains=("car",),
                              num_queries=2).run()
        assert document["seeds"]["11"] == sweep.to_json_dict()

    def test_sweep_and_campaign_dispatch_the_same_cells(self, tmp_path):
        # One cell pipeline: even on the serial backend, a sweep and a
        # campaign hand map_tasks the same cells, in the same order.
        class RecordingBackend(SerialBackend):
            def __init__(self):
                self.keys = []

            def map_tasks(self, fn, items):
                self.keys += [spec.cell_key() for spec in items]
                return super().map_tasks(fn, items)

        domains = ("car", "researcher")
        campaign = RecordingBackend()
        CampaignRunner(tmp_path / "camp", spec=tiny_spec(domains=domains),
                       backend=campaign).run()
        sweep = RecordingBackend()
        ScenarioSweep(scale=TINY_SCALE, scenarios=("zipf-skew",),
                      methods=("MQ", "RND"), domains=domains, num_queries=2,
                      backend=sweep).run()
        assert len(sweep.keys) == 4
        assert sweep.keys == campaign.keys

    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path):
        control = CampaignRunner(tmp_path / "control", spec=tiny_spec())
        control_report = control.run()

        interrupted = CampaignRunner(tmp_path / "interrupted",
                                     spec=tiny_spec())
        first = interrupted.run(max_cells=1)
        assert not first.complete
        assert (first.executed, first.remaining) == (1, 1)
        assert first.matrices_path is None

        # A fresh runner over the same directory — the resume path.
        resumed = CampaignRunner(tmp_path / "interrupted")
        second = resumed.run()
        assert second.complete
        assert (second.skipped, second.executed) == (1, 1)
        assert second.matrices_path.read_bytes() \
            == control_report.matrices_path.read_bytes()

    def test_complete_campaign_skips_everything(self, tmp_path):
        CampaignRunner(tmp_path / "camp", spec=tiny_spec()).run()
        report = CampaignRunner(tmp_path / "camp").run()
        assert (report.skipped, report.executed) == (2, 0)
        assert report.complete

    def test_fold_is_pure_function_of_artifacts(self, tmp_path):
        runner = CampaignRunner(tmp_path / "camp", spec=tiny_spec())
        runner.run()
        once = fold_matrices(runner.spec, runner.store)
        twice = fold_matrices(runner.spec, runner.store)
        assert json.dumps(once, sort_keys=True) \
            == json.dumps(twice, sort_keys=True)

    def test_artifacts_without_rows_fold_to_the_same_matrices(self, tmp_path):
        # Cell artifacts journaled before cells returned rows hold only the
        # metric blocks; a campaign directory of them folds to the same
        # matrices, byte for byte.
        runner = CampaignRunner(tmp_path / "camp", spec=tiny_spec())
        report = runner.run()
        expected = report.matrices_path.read_bytes()
        artifacts = sorted(runner.store.cells_dir.glob("*.json"))
        assert artifacts
        for artifact in artifacts:
            payload = json.loads(artifact.read_text(encoding="utf-8"))
            assert payload["result"].pop("rows")
            artifact.write_text(json.dumps(payload, indent=2, sort_keys=True)
                                + "\n", encoding="utf-8")
        report.matrices_path.unlink()
        replayed = CampaignRunner(tmp_path / "camp").run()
        assert (replayed.skipped, replayed.executed) == (2, 0)
        assert replayed.matrices_path.read_bytes() == expected

    def test_process_backend_same_bytes(self, tmp_path):
        serial = CampaignRunner(tmp_path / "serial", spec=tiny_spec())
        process = CampaignRunner(tmp_path / "process", spec=tiny_spec(),
                                 backend="process", workers=2)
        a = serial.run().matrices_path.read_bytes()
        b = process.run().matrices_path.read_bytes()
        assert a == b

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_perf_phases_count_each_cell_once(self, tmp_path, backend):
        # Worker processes ship their cells' phases home; in-process cells
        # record directly, so their shipped copy must not be merged again.
        from repro import perf

        rec = perf.enable()
        try:
            CampaignRunner(tmp_path / "camp", spec=tiny_spec(corpus_store="off"),
                           backend=backend, workers=2).run()
        finally:
            perf.disable()
        assert rec.count("sweep-cell") == 2
        assert rec.count("harvest") >= 1

    def test_checkpoint_every_validates(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            CampaignRunner(tmp_path / "camp", spec=tiny_spec(),
                           checkpoint_every=0)

    def test_summary_document_shape(self, tmp_path):
        runner = CampaignRunner(tmp_path / "camp", spec=tiny_spec())
        report = runner.run()
        doc = runner.summary_document(report)
        assert doc["schema"].startswith("BENCH_campaign/")
        assert doc["campaign"] == "unit"
        assert doc["cells"] == {"total": 2, "skipped_on_resume": 0,
                                "executed_this_run": 2, "remaining": 0}
        assert doc["complete"] is True
        json.dumps(doc)  # JSON-serialisable throughout


class TestStoreRegistry:
    def test_clean_reaps_registered_handles(self, tmp_path):
        root = tmp_path / "camp"
        # Nonexistent segments: release() treats unlink-of-gone as no-op,
        # so the registry bookkeeping is observable without real shm.
        handles = {
            "seed11/car": StoreHandle(mode="shm", name="repro_test_gone",
                                      size=16, digest="d"),
        }
        register_store_handles(root, handles)
        assert (root / STORES_NAME).exists()
        reaped = clean_stale_stores(root)
        assert reaped == ["shm:repro_test_gone"]
        assert not (root / STORES_NAME).exists()

    def test_clean_without_registry_is_noop(self, tmp_path):
        assert clean_stale_stores(tmp_path / "nothing") == []

    def test_empty_registration_removes_file(self, tmp_path):
        root = tmp_path / "camp"
        register_store_handles(
            root, {"x": StoreHandle(mode="shm", name="n", size=1)})
        register_store_handles(root, {})
        assert not (root / STORES_NAME).exists()

    def test_malformed_registry_is_tolerated(self, tmp_path):
        root = tmp_path / "camp"
        root.mkdir()
        (root / STORES_NAME).write_text("{broken", encoding="utf-8")
        assert clean_stale_stores(root) == []
        assert not (root / STORES_NAME).exists()
