"""PerfRecorder: phase timing, aggregation, and the global on/off switch."""

import json

import pytest

from repro import perf
from repro.perf.timer import PerfRecorder


@pytest.fixture(autouse=True)
def _reset_global_recorder():
    """Tests must not leak an enabled recorder into the rest of the suite."""
    yield
    perf.disable()


class TestPerfRecorder:
    def test_phase_records_elapsed_seconds(self):
        rec = PerfRecorder()
        with rec.phase("harvest", entity="e1") as timer:
            _ = sum(range(1000))
        assert timer.elapsed >= 0.0
        assert rec.count("harvest") == 1
        assert rec.total("harvest") == pytest.approx(timer.elapsed)
        assert rec.samples_for("harvest")[0].meta_dict() == {"entity": "e1"}

    def test_record_and_aggregates(self):
        rec = PerfRecorder()
        rec.record("selection", 0.25, method="L2QP")
        rec.record("selection", 0.75, method="L2QR")
        rec.record("fetch", 1.0)
        assert rec.count("selection") == 2
        assert rec.total("selection") == pytest.approx(1.0)
        assert rec.mean("selection") == pytest.approx(0.5)
        assert rec.mean("missing") == 0.0
        assert rec.phases() == ["fetch", "selection"]

    def test_record_aggregate_weights_count(self):
        rec = PerfRecorder()
        rec.record("selection", 0.2)
        rec.record_aggregate("selection", 0.8, 4, worker_pid=123)
        assert rec.count("selection") == 5
        assert rec.total("selection") == pytest.approx(1.0)
        assert rec.mean("selection") == pytest.approx(0.2)
        # Zero-occurrence aggregates record nothing.
        rec.record_aggregate("noop", 1.0, 0)
        assert rec.count("noop") == 0

    def test_mark_and_aggregates_since_round_trip(self):
        worker = PerfRecorder()
        worker.record("split-prepare", 1.0)
        mark = worker.mark()
        worker.record("harvest", 0.5)
        worker.record("selection", 0.25)
        worker.record("selection", 0.75)
        shipped = worker.aggregates_since(mark)
        assert shipped == {
            "harvest": {"count": 1, "total_seconds": 0.5},
            "selection": {"count": 2, "total_seconds": pytest.approx(1.0)},
        }
        home = PerfRecorder()
        home.record_aggregates(shipped, worker_pid=7)
        assert home.count("selection") == 2
        assert home.mean("selection") == pytest.approx(0.5)
        assert home.count("split-prepare") == 0  # before the mark
        assert home.samples_for("harvest")[0].meta_dict() == {"worker_pid": 7}

    def test_as_dict_and_write_round_trip(self, tmp_path):
        rec = PerfRecorder()
        rec.record("sweep-cell", 2.0, domain="car")
        path = rec.write(tmp_path / "perf.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == rec.as_dict()
        assert loaded["phases"]["sweep-cell"]["count"] == 1
        assert loaded["phases"]["sweep-cell"]["total_seconds"] == pytest.approx(2.0)

    def test_clear(self):
        rec = PerfRecorder()
        rec.record("x", 1.0)
        rec.clear()
        assert rec.samples == []


class TestGlobalSwitch:
    def test_disabled_by_default_returns_none(self):
        perf.disable()
        assert perf.recorder() is None

    def test_disabled_calls_are_one_shared_no_op(self):
        rec = perf.enable()
        perf.disable()
        first = perf.phase("split-prepare", split=0)
        assert perf.phase("harvest") is first
        with first:
            pass
        perf.record("selection", 0.5, selector="RND")
        perf.fold({"harvest": {"count": 2, "total_seconds": 1.0}})
        assert rec.samples == []

    def test_enable_installs_and_collects(self):
        rec = perf.enable()
        assert perf.recorder() is rec
        with perf.phase("split-prepare", split=3):
            pass
        perf.record("selection", 0.25, selector="RND")
        assert rec.count("split-prepare") == 1
        assert rec.samples_for("split-prepare")[0].meta_dict() == {"split": 3}
        assert rec.count("selection") == 1
        assert rec.total("selection") == 0.25

    def test_handoff_ships_exactly_its_block(self):
        perf.disable()
        with perf.handoff() as phases:
            perf.record("selection", 0.5)
        assert phases == {}

        rec = perf.enable()
        perf.record("split-prepare", 1.0)  # before the hand-off
        with perf.handoff() as phases:
            with perf.phase("harvest"):
                perf.record("selection", 0.25)
                perf.record("selection", 0.75)
        assert set(phases) == {"harvest", "selection"}
        assert phases["selection"] == {"count": 2,
                                       "total_seconds": pytest.approx(1.0)}
        assert phases["harvest"]["count"] == 1
        # The samples stay where they were written.
        assert rec.count("selection") == 2

        home = perf.enable(PerfRecorder())
        perf.fold(phases, worker_pid=7)
        assert home.count("selection") == 2
        assert home.count("split-prepare") == 0
        assert home.samples_for("harvest")[0].meta_dict() == {"worker_pid": 7}

    def test_enable_accepts_existing_recorder(self):
        mine = PerfRecorder()
        assert perf.enable(mine) is mine
        assert perf.recorder() is mine

    def test_instrumented_harvest_records_phases(self, researcher_runner,
                                                 researcher_prepared):
        rec = perf.enable()
        researcher_runner.harvest_once(researcher_prepared, "RND",
                                       researcher_prepared.split.test_entities[0],
                                       "RESEARCH", 2)
        assert rec.count("harvest") == 1
        assert rec.count("selection") >= 1
        perf.disable()

    def test_disabled_harvest_records_nothing(self, researcher_runner,
                                              researcher_prepared):
        rec = perf.enable()
        perf.disable()
        researcher_runner.harvest_once(researcher_prepared, "RND",
                                       researcher_prepared.split.test_entities[0],
                                       "RESEARCH", 2)
        assert rec.samples == []
