"""Tests for the robustness sweep (selectors × scenarios)."""

import json

import pytest

from repro.eval.experiments import ExperimentScale
from repro.eval.reporting import format_scenarios
from repro.core.config import L2QConfig
from repro.eval.scenario_sweep import (
    DEFAULT_SWEEP_METHODS,
    SCHEMA,
    ScenarioSweep,
    expand_config_grid,
    expand_severity_grid,
)
from repro.scenarios import ScenarioSpec, ZipfPageSkew, make_scenario

#: Smallest scale that still exercises the full protocol.
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

SCENARIOS = ("zipf-skew", "near-duplicates")


@pytest.fixture(scope="module")
def sweep_result():
    return ScenarioSweep(scale=TINY_SCALE, scenarios=SCENARIOS,
                         methods=("L2QBAL", "MQ"),
                         domains=("researcher",), num_queries=2).run()


class TestSweepStructure:
    def test_matrix_covers_scenarios_and_methods(self, sweep_result):
        assert sweep_result.scenarios == list(SCENARIOS)
        cells = sweep_result.cells_by_domain["researcher"]
        assert set(cells) == set(SCENARIOS)
        for cell in cells.values():
            assert set(cell.f_delta) == {"L2QBAL", "MQ"}
            assert set(cell.metrics) == {"L2QBAL", "MQ"}
            for metrics in cell.metrics.values():
                assert set(metrics) == {"precision", "recall", "f_score"}

    def test_deltas_are_scenario_minus_clean(self, sweep_result):
        clean = sweep_result.clean_by_domain["researcher"]["metrics"]
        for name in SCENARIOS:
            cell = sweep_result.cells_by_domain["researcher"][name]
            for method in ("L2QBAL", "MQ"):
                expected = cell.metrics[method]["f_score"] - clean[method]["f_score"]
                assert sweep_result.f_delta("researcher", name, method) == expected

    def test_perturbed_corpora_differ_from_clean(self, sweep_result):
        clean_digest = sweep_result.clean_by_domain["researcher"]["corpus_digest"]
        for cell in sweep_result.cells_by_domain["researcher"].values():
            assert cell.corpus_digest != clean_digest

    def test_mean_f_delta_averages_domains_and_methods(self, sweep_result):
        name = SCENARIOS[0]
        cell = sweep_result.cells_by_domain["researcher"][name]
        expected = (cell.f_delta["L2QBAL"] + cell.f_delta["MQ"]) / 2
        assert sweep_result.mean_f_delta(name) == pytest.approx(expected)

    def test_json_dict_shape(self, sweep_result):
        report = sweep_result.to_json_dict()
        assert report["schema"] == SCHEMA
        assert report["scale"] == "tiny"
        assert report["seed"] == TINY_SCALE.corpus_seed
        assert report["scenarios"] == list(SCENARIOS)
        block = report["domains"]["researcher"]
        assert set(block["scenarios"]) == set(SCENARIOS)
        for name in SCENARIOS:
            assert name in report["summary"]
            assert "mean_f_delta" in report["summary"][name]
        # The rendering must survive a JSON round-trip unchanged.
        assert json.loads(json.dumps(report)) == report

    def test_absolute_metrics_alongside_normalised(self, sweep_result):
        report = sweep_result.to_json_dict()
        block = report["domains"]["researcher"]
        assert set(block["clean"]["absolute_metrics"]) == {"L2QBAL", "MQ"}
        for name in SCENARIOS:
            cell = block["scenarios"][name]
            assert set(cell["absolute_metrics"]) == {"L2QBAL", "MQ"}
            assert set(cell["absolute_f_delta"]) == {"L2QBAL", "MQ"}
            # Absolute deltas are scenario minus clean, like the normalised.
            for method in ("L2QBAL", "MQ"):
                expected = (cell["absolute_metrics"][method]["f_score"]
                            - block["clean"]["absolute_metrics"][method]["f_score"])
                assert cell["absolute_f_delta"][method] == expected
            assert "mean_absolute_f_delta" in report["summary"][name]

    def test_duplicate_waste_and_fetch_blocks(self, sweep_result):
        report = sweep_result.to_json_dict()
        block = report["domains"]["researcher"]
        for cell in [block["clean"]] + [block["scenarios"][n] for n in SCENARIOS]:
            assert set(cell["duplicate_waste"]) == {"L2QBAL", "MQ"}
            for value in cell["duplicate_waste"].values():
                assert 0.0 <= value <= 1.0
            fetch = cell["fetch"]
            assert fetch["queries_fired"] > 0
            assert fetch["pages_fetched"] > 0
            assert fetch["cache_hits"] + fetch["cache_misses"] > 0
        for name in SCENARIOS:
            assert "mean_duplicate_waste" in report["summary"][name]

    def test_near_duplicates_raise_waste_over_clean(self, sweep_result):
        # The scenario's whole point: injected near-copies get fetched.
        block = sweep_result.to_json_dict()["domains"]["researcher"]
        clean = block["clean"]["duplicate_waste"]["L2QBAL"]
        scenario = block["scenarios"]["near-duplicates"]["duplicate_waste"]["L2QBAL"]
        assert scenario > clean

    def test_absolute_f_scores_bounded(self, sweep_result):
        # Absolute metrics are raw precision/recall/F in [0, 1]; normalised
        # values may exceed 1 when a method beats the degraded ideal.
        report = sweep_result.to_json_dict()
        for name in SCENARIOS:
            cell = report["domains"]["researcher"]["scenarios"][name]
            for metrics in cell["absolute_metrics"].values():
                for value in metrics.values():
                    assert 0.0 <= value <= 1.0


class TestDeterminism:
    def test_same_seed_reproduces_json_byte_for_byte(self):
        kwargs = dict(scale=TINY_SCALE, scenarios=("zipf-skew",),
                      methods=("L2QBAL",), domains=("researcher",),
                      num_queries=2)
        first = ScenarioSweep(**kwargs).run().to_json()
        second = ScenarioSweep(**kwargs).run().to_json()
        assert first == second

    def test_worker_count_does_not_change_result(self):
        kwargs = dict(scale=TINY_SCALE, scenarios=("zipf-skew",),
                      methods=("L2QBAL",), domains=("researcher",),
                      num_queries=2)
        serial = ScenarioSweep(workers=1, **kwargs).run().to_json()
        parallel = ScenarioSweep(workers=4, **kwargs).run().to_json()
        assert serial == parallel


class TestOutput:
    def test_write_creates_parent_dirs(self, sweep_result, tmp_path):
        path = sweep_result.write(tmp_path / "nested" / "BENCH_scenarios.json")
        assert path.exists()
        assert json.loads(path.read_text(encoding="utf-8"))["scale"] == "tiny"

    def test_format_scenarios_renders_matrix(self, sweep_result):
        text = format_scenarios(sweep_result)
        assert "clean" in text
        for name in SCENARIOS:
            assert name in text
        assert "Mean F-score delta" in text


class TestValidation:
    def test_requires_methods(self):
        with pytest.raises(ValueError, match="method"):
            ScenarioSweep(scale=TINY_SCALE, methods=())

    def test_unknown_scenario_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioSweep(scale=TINY_SCALE, scenarios=("no-such-scenario",))

    def test_unknown_method_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ScenarioSweep(scale=TINY_SCALE, methods=("L2QBall",))

    def test_ideal_pseudo_method_rejected(self):
        # IDEAL is the normalisation denominator: sweeping it would emit an
        # all-1.0 matrix with zero deltas.
        with pytest.raises(ValueError, match="IDEAL"):
            ScenarioSweep(scale=TINY_SCALE, methods=("L2QBAL", "IDEAL"))

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ValueError, match="duplicate scenarios"):
            ScenarioSweep(scale=TINY_SCALE,
                          scenarios=("zipf-skew", "zipf-skew"))

    def test_unknown_domain_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown domains"):
            ScenarioSweep(scale=TINY_SCALE, domains=("researcher", "carz"))

    @pytest.mark.parametrize("num_queries", [0, -1])
    def test_non_positive_budget_rejected_up_front(self, num_queries):
        # A campaign and `scenarios run --queries` reject these too; the
        # sweep used to fail only when its first cell evaluated (-1) or to
        # run a zero-query matrix (0).
        with pytest.raises(ValueError, match="num_queries"):
            ScenarioSweep(scale=TINY_SCALE, num_queries=num_queries)

    def test_empty_domains_rejected_up_front(self):
        # Used to return an empty matrix whose summary read mean ΔF 0.0.
        with pytest.raises(ValueError, match="at least one domain"):
            ScenarioSweep(scale=TINY_SCALE, domains=())

    def test_accepts_prebuilt_specs(self):
        spec = ScenarioSpec(name="inline", description="ad hoc",
                            perturbations=(ZipfPageSkew(),))
        sweep = ScenarioSweep(scale=TINY_SCALE, scenarios=(spec,))
        assert sweep.specs == [spec]

    def test_default_scenarios_cover_registry(self):
        sweep = ScenarioSweep(scale=TINY_SCALE)
        assert len(sweep.specs) >= 4
        assert set(DEFAULT_SWEEP_METHODS) == {"L2QP", "L2QR", "L2QBAL"}


class TestSeverityGrid:
    def test_expand_names_and_metadata(self):
        specs, grid = expand_severity_grid(["zipf-skew"], "exponent",
                                           [0.5, 1.0, 1.5])
        assert [s.name for s in specs] == ["zipf-skew@exponent=0.5",
                                           "zipf-skew@exponent=1.0",
                                           "zipf-skew@exponent=1.5"]
        assert grid == {"param": "exponent", "values": [0.5, 1.0, 1.5],
                        "scenarios": ["zipf-skew"]}
        # Each spec carries the severity in its perturbation pipeline.
        assert [s.perturbations[0].exponent for s in specs] == [0.5, 1.0, 1.5]

    def test_expand_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            expand_severity_grid(["zipf-skew"], "warp_factor", [9])

    def test_expand_reports_bad_value_as_value_error(self):
        # A malformed value must not be misreported as an unknown parameter
        # (the factory *does* accept `exponent`; "0.5x" is the problem).
        with pytest.raises(ValueError, match="invalid value '0.5x'"):
            expand_severity_grid(["zipf-skew"], "exponent", ["0.5x"])
        with pytest.raises(ValueError, match="invalid value -1"):
            expand_severity_grid(["zipf-skew"], "exponent", [-1])

    def test_expand_rejects_empty_values(self):
        with pytest.raises(ValueError, match="at least one value"):
            expand_severity_grid(["zipf-skew"], "exponent", [])

    def test_grid_sweep_produces_curve_cells(self):
        specs, grid = expand_severity_grid(["zipf-skew"], "exponent",
                                           [0.5, 1.5])
        result = ScenarioSweep(scale=TINY_SCALE, scenarios=specs,
                               methods=("MQ",), domains=("researcher",),
                               num_queries=2, param_grid=grid).run()
        report = result.to_json_dict()
        assert report["param_grid"] == grid
        cells = report["domains"]["researcher"]["scenarios"]
        assert set(cells) == {"zipf-skew@exponent=0.5", "zipf-skew@exponent=1.5"}
        # Severities perturb the corpus differently, so the digests differ:
        # the matrix holds one real cell per grid point (a curve, not a dot).
        digests = {cell["corpus_digest"] for cell in cells.values()}
        assert len(digests) == 2


class TestConfigGrid:
    def test_expand_names_configs_and_metadata(self):
        specs, grid, configs = expand_config_grid(
            ["near-duplicates"], "dedup_penalty", [0.0, 0.5])
        assert [s.name for s in specs] == ["near-duplicates@dedup_penalty=0.0",
                                          "near-duplicates@dedup_penalty=0.5"]
        assert grid == {"param": "dedup_penalty", "values": [0.0, 0.5],
                        "scenarios": ["near-duplicates"], "target": "config"}
        assert configs["near-duplicates@dedup_penalty=0.5"].dedup_penalty == 0.5
        # The perturbation pipeline is the *same* for every grid point —
        # only the learner config varies.
        pipelines = {tuple(s.perturbations) for s in specs}
        assert len(pipelines) == 1

    def test_expand_preserves_base_config(self):
        base = L2QConfig(ranker="bm25")
        _, _, configs = expand_config_grid(["near-duplicates"],
                                           "dedup_penalty", [0.3],
                                           base_config=base)
        config = configs["near-duplicates@dedup_penalty=0.3"]
        assert config.ranker == "bm25"
        assert config.dedup_penalty == 0.3
        assert base.dedup_penalty == 0.0  # the base is not mutated

    def test_expand_rejects_non_config_parameter(self):
        with pytest.raises(ValueError, match="not an L2QConfig field"):
            expand_config_grid(["zipf-skew"], "exponent", [0.5])

    @pytest.mark.parametrize("param", ["num_queries", "random_seed"])
    def test_expand_rejects_fields_the_sweep_ignores(self, param):
        # The budget comes from --queries and seeds derive from base_seed:
        # a grid over either would emit byte-identical cells.
        with pytest.raises(ValueError, match="ignored by the sweep"):
            expand_config_grid(["zipf-skew"], param, [1, 5])

    def test_expand_rejects_invalid_value(self):
        with pytest.raises(ValueError, match="invalid value 7"):
            expand_config_grid(["zipf-skew"], "dedup_penalty", [7])

    def test_sweep_rejects_orphan_config_overrides(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            ScenarioSweep(scale=TINY_SCALE, scenarios=("zipf-skew",),
                          config_by_scenario={"no-such-cell": L2QConfig()})

    def test_config_grid_cells_share_corpus_but_not_config(self):
        specs, grid, configs = expand_config_grid(
            ["near-duplicates"], "dedup_penalty", [0.0, 0.5])
        result = ScenarioSweep(scale=TINY_SCALE, scenarios=specs,
                               methods=("L2QBAL",), domains=("researcher",),
                               num_queries=2, param_grid=grid,
                               config_by_scenario=configs).run()
        cells = result.to_json_dict()["domains"]["researcher"]["scenarios"]
        off = cells["near-duplicates@dedup_penalty=0.0"]
        on = cells["near-duplicates@dedup_penalty=0.5"]
        # Same corpus condition (one digest), different learner behaviour.
        assert off["corpus_digest"] == on["corpus_digest"]
        assert set(off["duplicate_waste"]) == {"L2QBAL"}


class TestCellRows:
    """A cell returns one row per scored session; its metric blocks are the
    rows' fold at the cell's budget, and the rows survive JSON."""

    @pytest.fixture(scope="class")
    def cell(self):
        from repro.eval.scenario_sweep import execute_sweep_cell, figure_cell_specs

        (spec,) = figure_cell_specs(TINY_SCALE, ("researcher",),
                                    ("L2QBAL", "MQ"), (1, 2))
        return spec, execute_sweep_cell(spec)

    def test_one_row_per_split_aspect_entity_method_budget(self, cell):
        from repro.eval.runner import ExperimentRunner

        spec, result = cell
        corpus = spec.corpus.build()
        split = ExperimentRunner(corpus, base_seed=spec.base_seed).default_split(0)
        expected = [
            (0, aspect, entity_id, method, budget)
            for aspect in list(corpus.aspects)[:spec.max_aspects]
            for entity_id in list(split.test_entities)[:spec.max_test_entities]
            if corpus.relevant_pages(entity_id, aspect)
            for method in spec.methods
            for budget in (1, 2)
        ]
        assert expected
        assert [(row.split, row.aspect, row.entity_id, row.method, row.budget)
                for row in result.rows] == expected

    def test_metric_blocks_are_the_rows_fold(self, cell):
        from repro.eval.runner import fold_rows

        spec, result = cell
        assert spec.num_queries == 2
        folded = fold_rows(result.rows, spec.methods, spec.query_budgets)
        for method in spec.methods:
            assert result.metrics[method] == {
                "precision": folded.normalized[method].precision[2],
                "recall": folded.normalized[method].recall[2],
                "f_score": folded.normalized[method].f_score[2]}
            assert result.absolute_metrics[method]["f_score"] == \
                folded.absolute[method].f_score[2]
            assert result.duplicate_waste[method] == \
                folded.duplicate_waste[method][2]

    def test_rows_round_trip_through_json(self, cell):
        from repro.exec.specs import SweepCellResult

        _, result = cell
        text = json.dumps(result.to_json_dict(), sort_keys=True)
        assert SweepCellResult.from_json_dict(json.loads(text)) == result

    def test_result_json_without_rows_still_loads(self, cell):
        # Artifacts journaled before cells returned rows have no "rows".
        from repro.exec.specs import SweepCellResult

        _, result = cell
        legacy = result.to_json_dict()
        del legacy["rows"]
        loaded = SweepCellResult.from_json_dict(legacy)
        assert loaded.rows == []
        assert loaded.metrics == result.metrics


class TestCellKeys:
    def _spec(self, **fields):
        from repro.exec.specs import SweepCellSpec

        base = dict(corpus=TINY_SCALE.corpus_spec_for("car"), methods=("MQ",),
                    num_queries=3, num_splits=1, max_test_entities=2,
                    max_aspects=2, config=None, base_seed=99)
        base.update(fields)
        return SweepCellSpec(**base)

    def test_default_budgets_and_fraction_leave_the_key_alone(self):
        plain = self._spec()
        assert self._spec(budgets=(3,)).cell_key() == plain.cell_key()
        assert self._spec(domain_fraction=1.0).cell_key() == plain.cell_key()
        assert plain.query_budgets == (3,)

    def test_budget_axis_and_fraction_change_the_key(self):
        plain = self._spec().cell_key()
        axis = self._spec(budgets=(2, 3))
        assert axis.query_budgets == (2, 3)
        fraction = self._spec(domain_fraction=0.25)
        assert len({plain, axis.cell_key(), fraction.cell_key()}) == 3
