"""Tests for the same-machine perfbench A/B gate: its decision rule, its
perfbench runs and its command line."""

import io
import json
import sys

import pytest

from benchmarks import check_perf_ab
from benchmarks.check_perf_ab import (
    Run,
    compare_outputs,
    failed_share,
    iqr,
    judge_claim,
    judge_metric,
    judge_workload,
    parse_run,
    perfbench_command,
    quartiles,
    report,
    run_perfbench,
)

END_TO_END = [
    {"name": "pass_s", "better": "lower", "bound": 0.15},
    {"name": "f_score", "better": "higher", "bound": 0.25},
]

BASE_PASS_S = [10.0, 10.3, 9.8, 10.1, 9.9]


def _runs(pass_s, f_score=0.8, **fields):
    return [Run(correct=fields.get("correct", True),
                attempted=fields.get("attempted", 72),
                failed=fields.get("failed", 0),
                metrics={"pass_s": value, "f_score": f_score})
            for value in pass_s]


def _failed(verdicts):
    return [(v.workload, v.metric) for v in verdicts if v.failed]


#: A stand-in for ``perfbench/run.py``: reads ``marker.txt`` from its
#: working directory and prints a result line with that ``pass_s``, or,
#: for the marker ``fail``, exits 3 with a message on stderr.
FAKE_PERFBENCH = """\
import json, os, sys
from pathlib import Path

print(json.dumps({"perfbench": {}}))
marker = Path("marker.txt").read_text().strip()
if marker == "fail":
    print("setup went wrong", file=sys.stderr)
    sys.exit(3)
metrics = {"pass_s": {"value": float(marker), "unit": "s"},
           "saw_pythonpath": {"value": float("PYTHONPATH" in os.environ),
                              "unit": "count"}}
print(json.dumps({"correct": True, "attempted": 4, "failed": 1,
                  "metrics": metrics}))
"""


def _checkout(path, marker="1.5", benchmark=None):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(FAKE_PERFBENCH)
    (path / "marker.txt").write_text(marker)
    if benchmark is not None:
        (path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return path


def _benchmark(*workloads):
    return {"command": ["python3", "perfbench/run.py"], "run_seconds": 1,
            "workloads": [{"name": name} for name in workloads],
            "end_to_end": END_TO_END}


class TestJudgeMetric:
    def test_median_twenty_percent_worse_fails(self):
        head = [value * 1.2 for value in BASE_PASS_S]
        reading = judge_metric(BASE_PASS_S, head, "lower", 0.15)
        assert reading["worse_pairs"] == 5
        assert reading["regressed"]

    def test_noise_inside_the_bound_passes(self):
        noise = [1.04, 0.97, 1.10, 0.95, 1.06]
        head = [value * factor for value, factor in zip(BASE_PASS_S, noise)]
        reading = judge_metric(BASE_PASS_S, head, "lower", 0.15)
        assert reading["worse_pairs"] == 0
        assert not reading["regressed"]

    def test_a_minority_of_worse_pairs_passes(self):
        # Two pairs of five 40% worse: not "most pairs".
        head = [BASE_PASS_S[0] * 1.4, BASE_PASS_S[1] * 1.4] + BASE_PASS_S[2:]
        reading = judge_metric(BASE_PASS_S, head, "lower", 0.15)
        assert reading["worse_pairs"] == 2
        assert not reading["regressed"]

    def test_a_gap_inside_base_spread_passes(self):
        # Every pair is worse than the bound, but base's runs spread wider
        # than the median gap, so the runs cannot tell the sides apart.
        base = [1.0, 4.0, 1.0, 4.0, 1.0, 4.0]
        head = [1.2, 4.0, 1.2, 4.0, 1.2, 4.7]
        reading = judge_metric(base, head, "lower", 0.15)
        assert reading["worse_pairs"] == 4
        assert reading["median_gap"] < reading["base_iqr"]
        assert not reading["regressed"]

    def test_higher_is_better_reads_a_drop_as_worse(self):
        base = [0.80] * 5
        assert judge_metric(base, [0.56] * 5, "higher", 0.25)["regressed"]
        assert not judge_metric(base, [0.95] * 5, "higher", 0.25)["regressed"]

    def test_pairs_without_a_value_do_not_count(self):
        head = [value * 1.3 for value in BASE_PASS_S]
        reading = judge_metric(BASE_PASS_S, head[:3] + [None, None], "lower",
                               0.15)
        assert reading["pairs"] == 3
        assert reading["regressed"]
        assert not judge_metric([None] * 5, head, "lower", 0.15)["regressed"]

    def test_equal_zero_values_are_not_worse(self):
        assert judge_metric([0.0] * 3, [0.0] * 3, "lower", 0.1)["worse_pairs"] == 0


class TestJudgeWorkload:
    def test_clean_workload_passes(self):
        verdicts = judge_workload("l2q-sessions", _runs(BASE_PASS_S),
                                  _runs(BASE_PASS_S), END_TO_END)
        assert _failed(verdicts) == []
        assert [v.metric for v in verdicts] == \
            ["correct", "failed_share", "pass_s", "f_score"]

    def test_slow_metric_is_named(self):
        head = _runs([value * 1.2 for value in BASE_PASS_S])
        verdicts = judge_workload("l2q-sessions", _runs(BASE_PASS_S), head,
                                  END_TO_END)
        assert _failed(verdicts) == [("l2q-sessions", "pass_s")]

    def test_incorrect_head_run_fails(self):
        head = _runs(BASE_PASS_S)
        head[3].correct = False
        verdicts = judge_workload("fig13", _runs(BASE_PASS_S), head, END_TO_END)
        assert _failed(verdicts) == [("fig13", "correct")]

    def test_head_run_without_result_fails(self):
        head = _runs(BASE_PASS_S)
        head[0] = Run(error="timed out")
        verdicts = judge_workload("fig13", _runs(BASE_PASS_S), head, END_TO_END)
        assert ("fig13", "correct") in _failed(verdicts)
        assert ("fig13", "failed_share") in _failed(verdicts)

    def test_larger_failed_share_fails(self):
        head = _runs(BASE_PASS_S)
        head[2].failed = 1
        verdicts = judge_workload("campaign-sweep", _runs(BASE_PASS_S), head,
                                  END_TO_END)
        assert _failed(verdicts) == [("campaign-sweep", "failed_share")]

    def test_failures_base_shares_do_not_fail(self):
        base = _runs(BASE_PASS_S, failed=1)
        head = _runs(BASE_PASS_S, failed=1)
        assert _failed(judge_workload("fig13", base, head, END_TO_END)) == []

    def test_metric_the_base_lacks_is_listed_not_gated(self):
        end_to_end = END_TO_END + [{"name": "new_s", "better": "lower",
                                    "bound": 0.1}]
        head = _runs(BASE_PASS_S)
        for run in head:
            run.metrics["new_s"] = 99.0
        verdicts = judge_workload("fig13", _runs(BASE_PASS_S), head, end_to_end)
        (listed,) = [v for v in verdicts if v.metric == "new_s"]
        assert not listed.failed
        assert "base lacks it" in listed.detail
        assert _failed(verdicts) == []

    def test_noise_wider_than_the_bound_is_reported_unresolved(self):
        base = _runs([10.0, 14.0, 10.0, 14.0, 10.0])
        verdicts = judge_workload("fig13", base, base, END_TO_END)
        (pass_s,) = [v for v in verdicts if v.metric == "pass_s"]
        assert not pass_s.failed
        assert "unresolved" in pass_s.detail
        assert all("unresolved" not in v.detail
                   for v in judge_workload("fig13", _runs(BASE_PASS_S),
                                           _runs(BASE_PASS_S), END_TO_END))

    def test_metric_without_a_bound_is_not_gated(self):
        end_to_end = [{"name": "pass_s", "better": "lower"}]
        head = _runs([value * 2 for value in BASE_PASS_S])
        verdicts = judge_workload("fig13", _runs(BASE_PASS_S), head, end_to_end)
        assert _failed(verdicts) == []
        assert "no bound" in verdicts[-1].detail


class TestRuns:
    def test_parse_run_reads_the_result_line(self):
        result = {"correct": True, "attempted": 72, "failed": 0,
                  "metrics": {"pass_s": {"value": 4.5, "unit": "s"}}}
        stdout = '{"perfbench": {}}\n' + json.dumps(result) + "\n"
        run = parse_run(stdout, 0, 12.0)
        assert run.correct and run.error == ""
        assert run.metrics == {"pass_s": 4.5}
        assert (run.attempted, run.failed, run.wall_s) == (72, 0, 12.0)

    def test_parse_run_reads_the_digest_of_the_info_line(self):
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        info = {"perfbench": {"digest": "ab" * 32, "seed": 11}}
        stdout = json.dumps(info) + "\n" + json.dumps(result) + "\n"
        assert parse_run(stdout, 0, 1.0).digest == "ab" * 32
        assert parse_run(json.dumps(result), 0, 1.0).digest == ""
        assert parse_run('{"perfbench": {}}\n' + json.dumps(result), 0, 1.0).digest == ""

    def test_parse_run_without_result_line(self):
        run = parse_run("Traceback ...\n", 1, 0.5)
        assert not run.correct
        assert run.metrics == {}
        assert "no result line" in run.error

    def test_nonzero_exit_is_not_correct(self):
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        assert not parse_run(json.dumps(result), 1, 1.0).correct

    def test_command_runs_on_this_interpreter(self):
        command = perfbench_command({"command": ["python3", "perfbench/run.py"]},
                                    "fig13", 10)
        assert command[0] == sys.executable
        assert command[1:] == ["perfbench/run.py", "--workload", "fig13",
                               "--seed", str(check_perf_ab.SEED),
                               "--seconds", "10", "--trace", "0"]

    def test_pairs_alternate_which_side_runs_first(self, monkeypatch, tmp_path):
        order = []

        def fake(checkout, command, seconds):
            order.append(checkout.name)
            return Run(correct=True, attempted=1)

        monkeypatch.setattr(check_perf_ab, "run_perfbench", fake)
        base, head = tmp_path / "base", tmp_path / "head"
        benchmark = {"command": ["python3", "perfbench/run.py"],
                     "run_seconds": 1, "workloads": [{"name": "fig13"}]}
        runs = check_perf_ab.collect(base, head, benchmark, pairs=4,
                                     log=io.StringIO())
        assert order == ["base", "head", "head", "base",
                         "base", "head", "head", "base"]
        assert [len(runs["fig13"][side]) for side in ("base", "head")] == [4, 4]

    def test_main_rejects_a_checkout_without_perfbench(self, tmp_path):
        out = io.StringIO()
        assert check_perf_ab.main(["--base", str(tmp_path),
                                   "--head", str(tmp_path)], out=out) == 2
        assert "perfbench/run.py" in out.getvalue()

    def test_main_requires_both_checkouts(self):
        with pytest.raises(SystemExit):
            check_perf_ab.main(["--head", "."])

    def test_command_keeps_a_launcher_that_is_not_python(self):
        command = perfbench_command({"command": ["./perfbench.sh"]}, "fig13", 10)
        assert command[0] == "./perfbench.sh"

    def test_run_perfbench_runs_in_the_checkout_without_pythonpath(
            self, tmp_path, monkeypatch):
        # Each side runs its own checkout's code: the run's working
        # directory is the checkout, and an inherited PYTHONPATH (which
        # could point at the other checkout's sources) is dropped.
        monkeypatch.setenv("PYTHONPATH", str(tmp_path / "elsewhere"))
        checkout = _checkout(tmp_path / "base", marker="2.25")
        run = run_perfbench(checkout, [sys.executable, "perfbench/run.py"], 1)
        assert run.correct and run.error == ""
        assert run.metrics == {"pass_s": 2.25, "saw_pythonpath": 0.0}
        assert (run.attempted, run.failed) == (4, 1)
        assert run.wall_s > 0

    def test_run_perfbench_failure_carries_the_stderr_tail(self, tmp_path):
        checkout = _checkout(tmp_path / "head", marker="fail")
        run = run_perfbench(checkout, [sys.executable, "perfbench/run.py"], 1)
        assert not run.correct
        assert run.error.startswith("exit 3, no result line")
        assert run.error.endswith("setup went wrong")


class TestSummaries:
    def test_iqr(self):
        assert iqr([7.0]) == 0.0
        assert iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0

    def test_failed_share_counts_a_run_without_result_as_one_failure(self):
        runs = [Run(correct=True, attempted=10, failed=1), Run(error="timed out")]
        assert failed_share(runs) == pytest.approx(2 / 11)
        assert failed_share([]) == 0.0

    def test_report_prints_walls_and_returns_the_failures(self):
        base = _runs(BASE_PASS_S)
        head = _runs([value * 1.2 for value in BASE_PASS_S])
        for run in base + head:
            run.wall_s = 12.0
        out = io.StringIO()
        failures = report({"l2q-sessions": {"base": base, "head": head}},
                          _benchmark("l2q-sessions"), out=out)
        assert [(v.workload, v.metric) for v in failures] == \
            [("l2q-sessions", "pass_s")]
        text = out.getvalue()
        assert "walls (s) base [12.0, 12.0, 12.0, 12.0, 12.0]" in text
        assert "FAIL pass_s" in text
        assert "ok   f_score" in text


class TestOutputs:
    @staticmethod
    def _digested(*digests):
        return [Run(correct=True, attempted=1, digest=digest) for digest in digests]

    def test_identical_outputs(self):
        runs = self._digested("d" * 64, "d" * 64)
        assert compare_outputs(runs, runs) == "outputs identical"

    def test_differing_outputs_name_both_digests(self):
        text = compare_outputs(self._digested("a" * 64, "a" * 64),
                               self._digested("b" * 64, "b" * 64))
        assert text == f"outputs differ (base {'a' * 12}, head {'b' * 12})"

    def test_a_run_without_an_info_line_is_not_compared(self):
        base = self._digested("a" * 64, "a" * 64)
        head = self._digested("a" * 64, "")
        assert compare_outputs(base, head) == \
            "outputs not compared: 1 of 4 runs reported no digest"

    def test_report_shows_the_outputs_line(self):
        base = _runs(BASE_PASS_S)
        for run in base:
            run.digest = "c" * 64
        out = io.StringIO()
        report({"fig13": {"base": base, "head": base}}, _benchmark("fig13"), out=out)
        assert "\n  outputs identical\n" in out.getvalue()


class TestMain:
    @pytest.fixture
    def checkouts(self, tmp_path):
        return (_checkout(tmp_path / "base", benchmark=_benchmark("old")),
                _checkout(tmp_path / "head",
                          benchmark=_benchmark("l2q-sessions")))

    def _main(self, checkouts, monkeypatch, head_pass_s):
        seen = {}

        def fake_collect(base, head, benchmark, pairs=check_perf_ab.PAIRS,
                         log=sys.stderr):
            seen["benchmark"] = benchmark
            return {"l2q-sessions": {"base": _runs(BASE_PASS_S),
                                     "head": _runs(head_pass_s)}}

        monkeypatch.setattr(check_perf_ab, "collect", fake_collect)
        out = io.StringIO()
        base, head = checkouts
        code = check_perf_ab.main(["--base", str(base), "--head", str(head)],
                                  out=out)
        return code, out.getvalue(), seen["benchmark"]

    def test_clean_runs_pass(self, checkouts, monkeypatch):
        code, text, _ = self._main(checkouts, monkeypatch, BASE_PASS_S)
        assert code == 0
        assert text.rstrip().endswith("perf gate passed")

    def test_a_regression_exits_1_and_names_workload_and_metric(
            self, checkouts, monkeypatch):
        code, text, _ = self._main(checkouts, monkeypatch,
                                   [value * 1.2 for value in BASE_PASS_S])
        assert code == 1
        assert "perf gate FAILED: l2q-sessions/pass_s" in text

    def test_workloads_come_from_the_heads_benchmark(self, checkouts,
                                                     monkeypatch):
        _, _, benchmark = self._main(checkouts, monkeypatch, BASE_PASS_S)
        assert [entry["name"] for entry in benchmark["workloads"]] == \
            ["l2q-sessions"]

    def test_head_without_benchmark_json_is_rejected(self, tmp_path):
        base = _checkout(tmp_path / "base", benchmark=_benchmark("fig13"))
        head = _checkout(tmp_path / "head")
        out = io.StringIO()
        assert check_perf_ab.main(["--base", str(base), "--head", str(head)],
                                  out=out) == 2
        assert "no BENCHMARK.json" in out.getvalue()


class TestClaim:
    BASE = [10.0, 10.3, 9.8, 10.1, 9.9, 10.2, 10.0, 9.9, 10.1, 10.0]

    def test_ten_wins_beyond_the_spread_meet_the_claim(self):
        reading = judge_claim(self.BASE, [value * 0.8 for value in self.BASE],
                              "lower")
        assert (reading["wins"], reading["ties"], reading["losses"]) == (10, 0, 0)
        assert reading["gain"] > reading["base_iqr"]
        assert reading["met"]

    def test_eight_wins_of_ten_do_not(self):
        head = [value * 0.8 for value in self.BASE[:8]] + [11.0, 11.0]
        reading = judge_claim(self.BASE, head, "lower")
        assert reading["wins"] == 8
        assert not reading["met"]

    def test_ties_count_for_neither_side(self):
        head = [value * 0.8 for value in self.BASE]
        head[0] = self.BASE[0]
        reading = judge_claim(self.BASE, head, "lower")
        assert (reading["wins"], reading["ties"]) == (9, 1)
        assert reading["met"]
        head[1] = self.BASE[1]
        assert not judge_claim(self.BASE, head, "lower")["met"]

    def test_a_gain_inside_base_spread_does_not(self):
        base = [1.0, 4.0] * 5
        head = [value - 0.1 for value in base]
        reading = judge_claim(base, head, "lower")
        assert reading["wins"] == 10
        assert reading["gain"] < reading["base_iqr"]
        assert not reading["met"]

    def test_higher_is_better(self):
        base = [0.80 + 0.001 * index for index in range(10)]
        assert judge_claim(base, [0.9] * 10, "higher")["met"]
        assert not judge_claim(base, [0.7] * 10, "higher")["met"]

    def test_a_pair_without_both_values_is_not_a_win(self):
        head = [value * 0.8 for value in self.BASE]
        head[3] = None
        reading = judge_claim(self.BASE, head, "lower")
        assert (reading["pairs"], reading["wins"]) == (10, 9)
        head[4] = None
        assert not judge_claim(self.BASE, head, "lower")["met"]

    def test_quartiles(self):
        assert quartiles([]) == (0.0, 0.0)
        assert quartiles([3.0]) == (3.0, 3.0)
        assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)

    def _checkouts(self, tmp_path, base_marker, head_marker):
        benchmark = _benchmark("l2q-sessions", "fig13")
        return (_checkout(tmp_path / "base", base_marker, benchmark),
                _checkout(tmp_path / "head", head_marker, benchmark))

    def _claim(self, checkouts, monkeypatch, *extra):
        commands = []
        real = check_perf_ab.run_perfbench

        def recorded(checkout, command, seconds):
            commands.append((checkout.name, command))
            return real(checkout, command, seconds)

        monkeypatch.setattr(check_perf_ab, "run_perfbench", recorded)
        monkeypatch.setattr(check_perf_ab, "CLAIM_PAIRS", 4)
        monkeypatch.setattr(check_perf_ab, "CLAIM_WIN_SHARE", 0.75)
        base, head = checkouts
        out = io.StringIO()
        code = check_perf_ab.main(["--base", str(base), "--head", str(head),
                                   "--claim", "l2q-sessions/pass_s", *extra],
                                  out=out)
        return code, out.getvalue(), commands

    def test_claim_runs_one_workload_at_its_seed_and_passes(self, tmp_path,
                                                            monkeypatch):
        code, text, commands = self._claim(
            self._checkouts(tmp_path, "2.0", "1.5"), monkeypatch, "--seed", "47")
        assert code == 0
        assert [side for side, _ in commands] == \
            ["base", "head", "head", "base", "base", "head", "head", "base"]
        for _, command in commands:
            assert command[command.index("--workload") + 1] == "l2q-sessions"
            assert command[command.index("--seed") + 1] == "47"
        assert "head better in 4 of 4 pairs" in text
        assert "base: median 2 [Q1 2, Q3 2]" in text
        assert "head: median 1.5 [Q1 1.5, Q3 1.5]" in text
        assert "(-25.0%)" in text
        assert text.rstrip().splitlines()[-2] == "claim met: l2q-sessions/pass_s"

    def test_a_claim_without_a_gain_exits_1(self, tmp_path, monkeypatch):
        code, text, _ = self._claim(
            self._checkouts(tmp_path, "2.0", "2.0"), monkeypatch, "--seed", "47")
        assert code == 1
        assert "0 of 4 pairs" in text and "4 tied" in text
        assert "claim NOT met: l2q-sessions/pass_s" in text

    def test_a_failed_head_run_fails_the_claim(self, tmp_path, monkeypatch):
        code, text, _ = self._claim(
            self._checkouts(tmp_path, "2.0", "fail"), monkeypatch, "--seed", "47")
        assert code == 1
        assert "4 of 8 runs incorrect: exit 3" in text
        assert "claim NOT met: l2q-sessions/pass_s" in text

    def test_unknown_workload_or_metric_exits_2(self, tmp_path):
        base, head = self._checkouts(tmp_path, "2.0", "1.0")
        for claim in ("campaign-sweep/pass_s", "l2q-sessions/nope", "l2q-sessions"):
            out = io.StringIO()
            assert check_perf_ab.main(["--base", str(base), "--head", str(head),
                                       "--claim", claim, "--seed", "3"],
                                      out=out) == 2
            assert "expected WORKLOAD/METRIC" in out.getvalue()

    def test_claim_and_seed_go_together(self, tmp_path):
        for extra in (["--seed", "3"], ["--claim", "l2q-sessions/pass_s"]):
            with pytest.raises(SystemExit):
                check_perf_ab.main(["--base", str(tmp_path), "--head",
                                    str(tmp_path), *extra])
