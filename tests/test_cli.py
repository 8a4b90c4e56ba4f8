"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_corpus_defaults(self):
        args = build_parser().parse_args(["corpus"])
        assert args.domain == "researcher"
        assert args.entities == 24

    def test_experiment_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_unknown_domain_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["corpus", "--domain", "movies"])


class TestCorpusCommand:
    def test_prints_statistics(self):
        out = io.StringIO()
        code = main(["corpus", "--domain", "car", "--entities", "6", "--pages", "6"],
                    out=out)
        assert code == 0
        text = out.getvalue()
        assert "domain" in text and "car" in text
        assert "pages" in text


class TestHarvestCommand:
    def test_harvest_with_manual_queries(self):
        out = io.StringIO()
        code = main(["harvest", "--domain", "researcher", "--entities", "12",
                     "--pages", "8", "--method", "MQ", "--queries", "2",
                     "--aspect", "CONTACT"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "query #1" in text
        assert "f-score=" in text

    def test_unknown_aspect_fails(self):
        out = io.StringIO()
        code = main(["harvest", "--domain", "researcher", "--entities", "12",
                     "--pages", "8", "--aspect", "HOBBY"], out=out)
        assert code == 2
        assert "unknown aspect" in out.getvalue()

    def test_unknown_entity_fails(self):
        out = io.StringIO()
        code = main(["harvest", "--domain", "researcher", "--entities", "12",
                     "--pages", "8", "--entity", "ghost"], out=out)
        assert code == 2


class TestExperimentCommand:
    def test_fig09_smoke(self):
        out = io.StringIO()
        code = main(["experiment", "--figure", "fig09", "--scale", "smoke",
                     "--domains", "researcher"], out=out)
        assert code == 0
        assert "RESEARCH" in out.getvalue()


class TestScenariosCommand:
    def test_scenarios_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_list_prints_registered_scenarios(self):
        out = io.StringIO()
        code = main(["scenarios", "list"], out=out)
        assert code == 0
        text = out.getvalue()
        for name in ("zipf-skew", "near-duplicates", "cross-domain-bleed",
                     "aspect-dropout"):
            assert name in text
        assert "stages:" in text

    def test_run_writes_robustness_matrix(self, tmp_path):
        import json

        out = io.StringIO()
        output = tmp_path / "BENCH_scenarios.json"
        code = main(["scenarios", "run", "--scale", "smoke",
                     "--scenarios", "zipf-skew",
                     "--methods", "MQ",
                     "--domains", "researcher",
                     "--queries", "2",
                     "--output", str(output)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "Robustness matrix" in text
        assert "zipf-skew" in text
        assert str(output) in text
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["scenarios"] == ["zipf-skew"]
        assert "MQ" in report["domains"]["researcher"]["scenarios"]["zipf-skew"]["f_delta"]

    def test_run_rejects_unknown_scenario(self, tmp_path):
        out = io.StringIO()
        code = main(["scenarios", "run", "--scenarios", "no-such-scenario",
                     "--output", str(tmp_path / "x.json")], out=out)
        assert code == 2
        assert "unknown scenario" in out.getvalue()

    def test_run_rejects_unknown_method(self, tmp_path):
        out = io.StringIO()
        code = main(["scenarios", "run", "--methods", "L2QBall",
                     "--output", str(tmp_path / "x.json")], out=out)
        assert code == 2
        assert "unknown methods" in out.getvalue()

    def test_run_reports_absolute_metrics(self, tmp_path):
        import json

        out = io.StringIO()
        output = tmp_path / "BENCH_scenarios.json"
        code = main(["scenarios", "run", "--scale", "smoke",
                     "--scenarios", "zipf-skew", "--methods", "MQ",
                     "--domains", "researcher", "--queries", "2",
                     "--output", str(output)], out=out)
        assert code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        cell = report["domains"]["researcher"]["scenarios"]["zipf-skew"]
        assert "absolute_metrics" in cell
        assert "absolute_f_delta" in cell
        assert "mean_absolute_f_delta" in report["summary"]["zipf-skew"]

    def test_param_grid_expands_scenarios(self, tmp_path):
        import json

        out = io.StringIO()
        output = tmp_path / "BENCH_scenarios.json"
        code = main(["scenarios", "run", "--scale", "smoke",
                     "--scenarios", "zipf-skew", "--methods", "MQ",
                     "--domains", "researcher", "--queries", "2",
                     "--param", "exponent=0.5,1.5",
                     "--output", str(output)], out=out)
        assert code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["scenarios"] == ["zipf-skew@exponent=0.5",
                                       "zipf-skew@exponent=1.5"]
        assert report["param_grid"] == {"param": "exponent",
                                        "values": [0.5, 1.5],
                                        "scenarios": ["zipf-skew"]}

    def test_param_requires_scenarios(self, tmp_path):
        out = io.StringIO()
        code = main(["scenarios", "run", "--param", "exponent=0.5",
                     "--output", str(tmp_path / "x.json")], out=out)
        assert code == 2
        assert "--param requires --scenarios" in out.getvalue()

    def test_param_rejects_unknown_parameter(self, tmp_path):
        out = io.StringIO()
        code = main(["scenarios", "run", "--scenarios", "zipf-skew",
                     "--param", "warp_factor=9",
                     "--output", str(tmp_path / "x.json")], out=out)
        assert code == 2
        assert "does not accept parameter" in out.getvalue()

    def test_param_rejects_malformed_grid(self, tmp_path):
        out = io.StringIO()
        code = main(["scenarios", "run", "--scenarios", "zipf-skew",
                     "--param", "exponent",
                     "--output", str(tmp_path / "x.json")], out=out)
        assert code == 2
        assert "NAME=V1,V2" in out.getvalue()


class TestDedupPenaltyArguments:
    def test_harvest_accepts_dedup_penalty(self):
        out = io.StringIO()
        code = main(["harvest", "--domain", "researcher", "--entities", "12",
                     "--pages", "8", "--method", "L2QBAL", "--queries", "2",
                     "--dedup-penalty", "0.5"], out=out)
        assert code == 0
        assert "f-score=" in out.getvalue()

    def test_out_of_range_penalty_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["harvest", "--dedup-penalty", "1.5"])

    def test_scenarios_run_accepts_dedup_penalty(self, tmp_path):
        import json

        out = io.StringIO()
        output = tmp_path / "BENCH_scenarios.json"
        code = main(["scenarios", "run", "--scale", "smoke",
                     "--scenarios", "near-duplicates", "--methods", "MQ",
                     "--domains", "researcher", "--queries", "2",
                     "--dedup-penalty", "0.5",
                     "--output", str(output)], out=out)
        assert code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert "duplicate_waste" in \
            report["domains"]["researcher"]["scenarios"]["near-duplicates"]

    def test_param_grid_over_dedup_penalty(self, tmp_path):
        import json

        out = io.StringIO()
        output = tmp_path / "BENCH_scenarios.json"
        code = main(["scenarios", "run", "--scale", "smoke",
                     "--scenarios", "near-duplicates", "--methods", "MQ",
                     "--domains", "researcher", "--queries", "2",
                     "--param", "dedup_penalty=0.0,0.5",
                     "--output", str(output)], out=out)
        assert code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["scenarios"] == ["near-duplicates@dedup_penalty=0.0",
                                       "near-duplicates@dedup_penalty=0.5"]
        assert report["param_grid"]["target"] == "config"
        cells = report["domains"]["researcher"]["scenarios"]
        digests = {cell["corpus_digest"] for cell in cells.values()}
        assert len(digests) == 1  # same corpus condition, different config

    def test_param_grid_rejects_bad_config_value(self, tmp_path):
        out = io.StringIO()
        code = main(["scenarios", "run", "--scenarios", "near-duplicates",
                     "--param", "dedup_penalty=7",
                     "--output", str(tmp_path / "x.json")], out=out)
        assert code == 2
        assert "invalid value 7" in out.getvalue()


class TestBackendArguments:
    def test_backend_choices(self):
        args = build_parser().parse_args(["experiment", "--figure", "fig13",
                                          "--backend", "process",
                                          "--workers", "2"])
        assert args.backend == "process"
        assert args.workers == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--figure", "fig13",
                                       "--backend", "quantum"])

    def test_scenarios_run_accepts_backend(self, tmp_path):
        import json

        out = io.StringIO()
        output = tmp_path / "BENCH_scenarios.json"
        code = main(["scenarios", "run", "--scale", "smoke",
                     "--scenarios", "zipf-skew", "--methods", "MQ",
                     "--domains", "researcher", "--queries", "2",
                     "--backend", "process", "--workers", "2",
                     "--output", str(output)], out=out)
        assert code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        # The backend must leave no trace in the matrix: the JSON is
        # byte-identical for any engine.
        assert "backend" not in report

    def test_harvest_notes_ignored_backend(self):
        out = io.StringIO()
        code = main(["harvest", "--domain", "researcher", "--entities", "12",
                     "--pages", "8", "--method", "MQ", "--queries", "2",
                     "--backend", "process"], out=out)
        assert code == 0
        assert "--backend/--workers ignored" in out.getvalue()

    def test_paper_scale_flag_parses(self):
        args = build_parser().parse_args(["scenarios", "run", "--paper-scale"])
        assert args.paper_scale is True

    def test_paper_scale_conflicts_with_explicit_scale(self, tmp_path):
        out = io.StringIO()
        code = main(["scenarios", "run", "--paper-scale", "--scale", "smoke",
                     "--output", str(tmp_path / "x.json")], out=out)
        assert code == 2
        assert "conflicts" in out.getvalue()


class TestPerfCommand:
    def test_perf_requires_subcommand(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])

    def test_manifest_regenerates_from_artifacts(self, tmp_path):
        import json

        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_harvest.json").write_text(json.dumps({
            "scale": "smoke", "python": "3.11.7", "workers": 2, "jobs": 4,
            "backends": {"serial": {"wall_seconds": 1.0,
                                    "pages_gathered": 100,
                                    "pages_per_second": 100.0,
                                    "jobs_per_second": 4.0,
                                    "speedup_vs_serial": 1.0}},
        }), encoding="utf-8")
        out = io.StringIO()
        code = main(["perf", "manifest", "--results", str(results)], out=out)
        assert code == 0
        manifest = json.loads(
            (results / "BENCH_manifest.json").read_text(encoding="utf-8"))
        assert manifest["schema"] == "BENCH_manifest/v1"
        assert manifest["sources"] == ["BENCH_harvest.json"]

    def test_manifest_rejects_missing_results_dir(self, tmp_path):
        out = io.StringIO()
        code = main(["perf", "manifest", "--results",
                     str(tmp_path / "absent")], out=out)
        assert code == 2
        assert "does not exist" in out.getvalue()

    def test_report_renders_speedups_and_deltas(self):
        out = io.StringIO()
        code = main(["perf", "report", "--results", "benchmarks/results"],
                    out=out)
        assert code == 0
        text = out.getvalue()
        assert "harvest/serial" in text
        assert "Speedup" in text
        # The committed manifest exists, so the delta section renders too.
        assert "Throughput vs committed manifest" in text

    def test_report_rejects_missing_baseline(self, tmp_path):
        out = io.StringIO()
        code = main(["perf", "report", "--results", "benchmarks/results",
                     "--baseline", str(tmp_path / "absent.json")], out=out)
        assert code == 2

    @staticmethod
    def _sweep_phase_report(tmp_path, *backend_args):
        import json

        out = io.StringIO()
        perf_path = tmp_path / "perf.json"
        code = main(["scenarios", "run", "--scale", "smoke",
                     "--scenarios", "zipf-skew", "--methods", "MQ",
                     "--domains", "researcher", "--queries", "2",
                     "--output", str(tmp_path / "matrix.json"),
                     "--perf-output", str(perf_path), *backend_args], out=out)
        assert code == 0
        assert f"wrote perf report {perf_path}" in out.getvalue()
        return json.loads(perf_path.read_text(encoding="utf-8"))

    def test_perf_output_writes_phase_report(self, tmp_path):
        report = self._sweep_phase_report(tmp_path)
        # The instrumented phases of a local sweep all fired.
        for phase in ("sweep-cell", "split-prepare", "harvest", "selection"):
            assert report["phases"][phase]["count"] >= 1, phase
        assert report["phases"]["sweep-cell"]["total_seconds"] > 0.0

    def test_perf_output_includes_worker_phases(self, tmp_path):
        # Cells evaluated in worker processes ship their phases home: one
        # sweep-cell sample per (domain, scenario) cell, plus the harvest
        # work inside them.
        report = self._sweep_phase_report(tmp_path, "--backend", "process",
                                          "--workers", "2")
        assert report["phases"]["sweep-dispatch"]["count"] == 1
        assert report["phases"]["sweep-cell"]["count"] == 2
        for phase in ("split-prepare", "harvest", "selection"):
            assert report["phases"][phase]["count"] >= 1, phase
        assert report["phases"]["sweep-cell"]["total_seconds"] > 0.0

    @staticmethod
    def _fig13_phases(tmp_path, *backend_args):
        import json

        perf_path = tmp_path / "perf.json"
        code = main(["experiment", "--figure", "fig13", "--scale", "smoke",
                     "--perf-output", str(perf_path), *backend_args],
                    out=io.StringIO())
        assert code == 0
        return json.loads(perf_path.read_text(encoding="utf-8"))["phases"]

    def test_perf_output_counts_process_selections(self, tmp_path):
        # The harvest loop records every selection wherever it runs, and
        # process workers ship their samples home, so a process run
        # profiles the same selections and harvests as the serial loop.
        serial = self._fig13_phases(tmp_path)
        process = self._fig13_phases(tmp_path, "--backend", "process",
                                     "--workers", "2")
        assert serial["selection"]["count"] > 0
        assert process.get("selection", {}).get("count") == \
            serial["selection"]["count"]
        assert process.get("harvest", {}).get("count") == \
            serial["harvest"]["count"]

    def test_perf_output_does_not_leak_global_recorder(self, tmp_path):
        from repro import perf

        main(["scenarios", "run", "--scale", "smoke",
              "--scenarios", "zipf-skew", "--methods", "MQ",
              "--domains", "researcher", "--queries", "2",
              "--output", str(tmp_path / "matrix.json"),
              "--perf-output", str(tmp_path / "perf.json")],
             out=io.StringIO())
        assert perf.recorder() is None


class TestRetiredArguments:
    """There is no thread backend, search-client choice, concurrency level
    or serve command: asking for one fails at parse time, not silently."""

    @pytest.mark.parametrize("argv", [
        ["experiment", "--figure", "fig13", "--backend", "thread"],
        ["scenarios", "run", "--backend", "thread"],
        ["campaign", "run", "--dir", "x", "--backend", "thread"],
        ["harvest", "--client", "simulated"],
        ["experiment", "--figure", "fig13", "--client", "instant"],
        ["experiment", "--figure", "fig13", "--concurrency", "4"],
        ["serve", "bench"],
        ["harvest", "--backend", "thread"],
        ["harvest", "--concurrency", "4"],
        ["campaign", "resume", "--dir", "x", "--backend", "thread"],
        ["serve"],
    ], ids=["experiment-thread", "scenarios-thread", "campaign-thread",
            "harvest-client", "experiment-client", "concurrency", "serve",
            "harvest-thread", "harvest-concurrency", "campaign-resume-thread",
            "serve-bare"])
    def test_rejected_by_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2

    @pytest.mark.parametrize("command", [
        ["harvest"],
        ["experiment"],
        ["scenarios", "run"],
        ["campaign", "run"],
        ["campaign", "resume"],
    ], ids=["harvest", "experiment", "scenarios-run", "campaign-run",
            "campaign-resume"])
    def test_backend_help_names_the_two_backends(self, command, capsys):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(command + ["--help"])
        assert raised.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "{process,serial}" in text
        assert "default: serial for 1 worker, process for more" in text
        assert "thread" not in text
