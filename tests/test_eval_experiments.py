"""Smoke-scale tests of the per-figure experiment entry points."""

import pytest

from repro.eval.experiments import (
    SMOKE_SCALE,
    ExperimentScale,
    get_scale,
    headline_summary,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig13,
    run_fig14,
)

#: An even smaller scale than SMOKE for unit tests of the experiment drivers.
TINY_SCALE = ExperimentScale(
    name="tiny",
    num_entities={"researcher": 12, "car": 12},
    pages_per_entity=8,
    num_splits=1,
    max_test_entities=1,
    max_aspects=1,
    num_queries_list=(2,),
)


class TestScales:
    def test_get_scale(self):
        assert get_scale("smoke") is SMOKE_SCALE
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_scale_builds_corpus(self):
        corpus = TINY_SCALE.corpus_for("researcher")
        assert corpus.num_entities() == 12
        assert TINY_SCALE.aspects_for(corpus) == corpus.aspects[:1]


class TestFig09:
    def test_rows_for_both_domains(self):
        result = run_fig09(TINY_SCALE)
        assert set(result.rows_by_domain) == {"researcher", "car"}
        for rows in result.rows_by_domain.values():
            assert len(rows) == 7
            for row in rows:
                assert 0.0 <= row.accuracy <= 1.0
                assert row.paragraph_frequency > 0

    def test_accuracy_lookup(self):
        result = run_fig09(TINY_SCALE, domains=("researcher",))
        assert result.accuracy("researcher", "RESEARCH") == \
            result.rows_by_domain["researcher"][
                [r.aspect for r in result.rows_by_domain["researcher"]].index("RESEARCH")
            ].accuracy
        assert result.mean_accuracy("researcher") > 0.5
        with pytest.raises(KeyError):
            result.accuracy("researcher", "HOBBY")


class TestFig10:
    def test_structure(self):
        result = run_fig10(TINY_SCALE, domains=("researcher",), num_queries=2)
        assert set(result.precision_by_domain["researcher"]) == {
            "RND", "P", "P+q", "P+t", "L2QP"}
        assert set(result.recall_by_domain["researcher"]) == {
            "RND", "R", "R+q", "R+t", "L2QR"}
        for value in result.precision_by_domain["researcher"].values():
            assert 0.0 <= value <= 1.0


class TestFig11:
    def test_fraction_sweep(self):
        result = run_fig11(TINY_SCALE, domains=("researcher",),
                           fractions=(0.0, 1.0), num_queries=2)
        assert set(result.precision_by_domain["researcher"]) == {0.0, 1.0}
        assert set(result.recall_by_domain["researcher"]) == {0.0, 1.0}
        assert result.fractions == (0.0, 1.0)


class TestFig13AndHeadline:
    def test_comparison_and_summary(self):
        result = run_fig13(TINY_SCALE, domains=("researcher",))
        series = result.series_by_domain["researcher"]
        assert set(series) == {"L2QBAL", "LM", "AQ", "HR", "MQ"}
        summary = headline_summary(result)
        assert summary.best_algorithmic_baseline in {"LM", "AQ", "HR"}
        assert 0.0 <= summary.l2qbal_f_score <= 1.0
        assert summary.manual_f_score >= 0.0


class TestFig14:
    def test_efficiency_report(self):
        result = run_fig14(TINY_SCALE, domains=("researcher",), methods=("L2QBAL",))
        report = result.reports_by_domain["researcher"]
        assert report.selection_seconds["L2QBAL"] >= 0.0
        assert report.fetch_seconds > 0.0


class TestFigureCells:
    """Figs. 10–13 run as cells: any backend gives the same tables, a
    figure cleans up the pool it created, and an in-process run never
    touches the corpus store."""

    def test_fig11_compiles_one_cell_per_domain_and_fraction(self):
        from repro.eval.scenario_sweep import figure_cell_specs

        cells = figure_cell_specs(TINY_SCALE, ("researcher", "car"),
                                  ("L2QP", "L2QR"), (3,),
                                  fractions=(0.0, 0.5, 1.0))
        assert [(c.domain, c.domain_fraction) for c in cells] == [
            (domain, fraction) for domain in ("researcher", "car")
            for fraction in (0.0, 0.5, 1.0)]
        assert all(c.num_queries == 3 and c.query_budgets == (3,)
                   for c in cells)

    def test_comparison_cells_harvest_to_the_largest_budget(self):
        from repro.eval.scenario_sweep import figure_cell_specs

        (cell,) = figure_cell_specs(TINY_SCALE, ("car",), ("MQ",), (4, 2, 3))
        assert cell.num_queries == 4
        assert cell.query_budgets == (2, 3, 4)

    def test_process_workers_reproduce_the_serial_figure(self):
        serial = run_fig11(TINY_SCALE, fractions=(0.0, 1.0))
        process = run_fig11(TINY_SCALE, fractions=(0.0, 1.0),
                            backend="process", workers=2)
        assert process == serial

    def test_figure_closes_the_pool_it_created(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        run_fig10(TINY_SCALE, domains=("car",), workers=2)
        assert not set(multiprocessing.active_children()) - before

    def test_figure_leaves_a_passed_backend_open(self):
        from repro.exec.backends import ProcessBackend

        backend = ProcessBackend(2)
        try:
            run_fig10(TINY_SCALE, domains=("car",), backend=backend)
            assert backend._pool is not None
        finally:
            backend.close()

    def test_figure_rejects_unknown_store_mode(self):
        with pytest.raises(ValueError, match="corpus-store mode"):
            run_fig13(TINY_SCALE, corpus_store="floppy")


class TestNoStoreInProcess:
    """Resolving ``auto`` probes shared memory, which starts
    multiprocessing's resource-tracker process; in-process work must
    never get that far."""

    @pytest.fixture
    def no_store_probe(self, monkeypatch):
        def probe():
            raise AssertionError("an in-process run resolved a store mode")

        monkeypatch.setattr("repro.store.corpus_store.default_mode", probe)

    def test_runner_resolves_no_store_mode(self, no_store_probe):
        from repro.eval.runner import ExperimentRunner

        ExperimentRunner(SMOKE_SCALE.corpus_for("car"))

    def test_serial_figure_resolves_no_store_mode(self, no_store_probe):
        result = run_fig13(SMOKE_SCALE, domains=("car",))
        assert set(result.series_by_domain) == {"car"}
