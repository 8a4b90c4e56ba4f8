#!/usr/bin/env python
"""Same-machine perfbench gate: fail when head is slower than base.

Runs ``perfbench/run.py --trace 0`` from two checkouts of the repository,
a *base* and a *head*, on one machine, and compares their end-to-end
metrics.  Every workload that head's ``BENCHMARK.json`` lists runs in
:data:`PAIRS` alternating base/head pairs (base first in even pairs, head
first in odd ones, so a drift of the host's speed hits both sides alike),
at the fixed seed :data:`SEED` and the file's ``run_seconds``.  Each side
runs the perfbench and the program of its own checkout.

A (workload, metric) fails when both hold — the benchmark's rule for
claiming a gain, inverted:

* head is worse than base by more than the metric's ``BENCHMARK.json``
  bound in most pairs (``head > base × (1 + bound)`` for a lower-is-better
  metric, ``head < base × (1 − bound)`` for a higher-is-better one);
* the median of the paired gaps exceeds the distance between the first
  and third quartile of base's runs.

A workload also fails when a head run reports ``correct: false`` (or
produces no result at all) or a larger failed share than base's runs.  A
metric head reports and base does not (a metric the change adds) is
listed but not gated, and so is a metric without a bound.

Per workload the report also says whether base and head produced the same
outputs, from the ``perfbench.digest`` of each run's info line.  That is
information, not a verdict: a change may move the outputs on purpose.

Comparing two commits on one runner, instead of fresh numbers against
numbers another machine committed, keeps the machine's speed out of the
verdict.  Usage (exit 0: pass, 1: a regression, 2: a checkout is
unusable)::

    git worktree add ../base origin/main
    python benchmarks/check_perf_ab.py --base ../base --head .

One gate run takes ``PAIRS × workloads × 2`` perfbench runs: about 7 min
with three workloads at ``run_seconds`` 10 on a 2-vCPU VM.

``--claim WORKLOAD/METRIC --seed S`` checks a claimed gain instead: it runs
only that workload, :data:`CLAIM_PAIRS` alternating pairs at seed ``S``
(pick one the change was not developed on), and applies the rule for
claiming a gain.  The claim holds when both hold:

* head is better than base in at least nine tenths of the pairs run, a tie
  counting for neither side (a pair without both values is not a win);
* the medians of the two sides differ, in head's favour, by more than the
  distance between the first and third quartile of base's runs.

It prints each side's median and quartiles, the pair counts and whether
the outputs are identical, and exits 1 when the claim is not met (or a run
is incorrect), 2 on an unknown workload or metric::

    python benchmarks/check_perf_ab.py --base ../base --head . \
        --claim l2q-sessions/pass_s --seed 47
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional, Sequence, Tuple

#: Alternating base/head pairs per workload.
PAIRS = 5
#: The one perfbench seed every run uses.  Seeds 1-10 calibrated the
#: benchmark's bounds (perfbench/README.md); 11 is the first one that did not.
SEED = 11
#: A run that takes longer than this many times ``run_seconds`` (plus a
#: minute for set-up) is stopped and counts as a run without a result.
TIMEOUT_FACTOR = 10
#: Alternating base/head pairs of a ``--claim`` run.
CLAIM_PAIRS = 10
#: The share of a claim's pairs head must win.
CLAIM_WIN_SHARE = 0.9


@dataclass
class Run:
    """One perfbench run: its result line, or the reason it has none."""

    correct: bool = False
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    error: str = ""
    #: The outputs' digest from perfbench's info line ("" without one).
    digest: str = ""


@dataclass
class Verdict:
    """The gate's reading of one (workload, metric)."""

    workload: str
    metric: str
    failed: bool
    detail: str


def load_benchmark(checkout: Path) -> dict:
    """The checkout's ``BENCHMARK.json``."""
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def perfbench_command(benchmark: dict, workload: str, seconds: int,
                      seed: int = SEED) -> List[str]:
    """The benchmark's command for one untraced run, on this interpreter."""
    command = list(benchmark["command"])
    if command and Path(command[0]).name.startswith("python"):
        command[0] = sys.executable
    return command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]


def parse_run(stdout: str, returncode: int, wall_s: float) -> Run:
    """Read perfbench's last stdout line, ``{"correct", "attempted", ...}``,
    and the digest of the info line before it."""
    lines = stdout.strip().splitlines()
    try:
        digest = str(json.loads(lines[-2])["perfbench"]["digest"])
    except (IndexError, KeyError, TypeError, ValueError):
        digest = ""
    try:
        result = json.loads(lines[-1])
        metrics = {name: float(entry["value"])
                   for name, entry in result["metrics"].items()}
        return Run(correct=result["correct"] is True and returncode == 0,
                   attempted=int(result["attempted"]),
                   failed=int(result["failed"]), metrics=metrics,
                   wall_s=wall_s,
                   error="" if returncode == 0 else f"exit {returncode}",
                   digest=digest)
    except (IndexError, KeyError, TypeError, ValueError):
        return Run(wall_s=wall_s, error=f"exit {returncode}, no result line")


def run_perfbench(checkout: Path, command: Sequence[str], seconds: int) -> Run:
    """One perfbench run inside ``checkout``, in a process group of its own
    so that a timed-out run leaves no worker behind."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONPATH"}
    start = time.perf_counter()
    process = subprocess.Popen(list(command), cwd=checkout, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(
            timeout=TIMEOUT_FACTOR * seconds + 60)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return Run(wall_s=time.perf_counter() - start, error="timed out")
    run = parse_run(stdout, process.returncode, time.perf_counter() - start)
    if run.error:
        run.error += ": " + " ".join(stderr.strip().splitlines()[-1:])
    return run


def collect(base: Path, head: Path, benchmark: dict, pairs: int = PAIRS,
            log=sys.stderr, seed: int = SEED
            ) -> Dict[str, Dict[str, List[Run]]]:
    """``{workload: {"base": [runs], "head": [runs]}}``, alternating sides,
    for every workload of ``benchmark``."""
    seconds = int(benchmark["run_seconds"])
    runs: Dict[str, Dict[str, List[Run]]] = {}
    for entry in benchmark["workloads"]:
        workload = entry["name"]
        command = perfbench_command(benchmark, workload, seconds, seed)
        sides = runs[workload] = {"base": [], "head": []}
        for pair in range(pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                run = run_perfbench(base if side == "base" else head, command,
                                    seconds)
                sides[side].append(run)
                print(f"{workload} pair {pair + 1}/{pairs} {side}: "
                      f"{run.wall_s:.1f} s"
                      + (f" ({run.error})" if run.error else ""), file=log)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """The first and third quartile (the value itself for one value, zeros
    for none)."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    first, _, third = quantiles(values, n=4, method="inclusive")
    return first, third


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    first, third = quartiles(values)
    return third - first


def judge_metric(base: Sequence[Optional[float]], head: Sequence[Optional[float]],
                 better: str, bound: float) -> dict:
    """Pairwise reading of one metric; ``regressed`` is the verdict.

    ``base[i]`` and ``head[i]`` are pair ``i``'s values (``None`` where a
    run has no result); only pairs with both values count.
    """
    paired = [(b, h) for b, h in zip(base, head)
              if b is not None and h is not None]
    sign = 1.0 if better == "lower" else -1.0
    gaps = [sign * (h - b) for b, h in paired]  # positive: head is worse
    worse = sum(1 for (b, _), gap in zip(paired, gaps) if gap > bound * abs(b))
    base_values = [b for b, _ in paired]
    spread = iqr(base_values)
    gap = median(gaps) if gaps else 0.0
    return {
        "pairs": len(paired),
        "worse_pairs": worse,
        "median_gap": gap,
        "base_median": median(base_values) if base_values else 0.0,
        "head_median": median(h for _, h in paired) if paired else 0.0,
        "base_iqr": spread,
        "regressed": bool(paired) and worse > len(paired) / 2 and gap > spread,
    }


def failed_share(runs: Sequence[Run]) -> float:
    """Failed over attempted, with a run without a result as one failure."""
    attempted = sum(run.attempted if run.attempted else 1 for run in runs)
    failed = sum(run.failed if run.attempted else 1 for run in runs)
    return failed / attempted if attempted else 0.0


def judge_workload(workload: str, base: Sequence[Run], head: Sequence[Run],
                   end_to_end: Sequence[dict]) -> List[Verdict]:
    """Every verdict of one workload: correctness, failures, then metrics."""
    verdicts = []
    wrong = [run.error or "correct: false" for run in head if not run.correct]
    verdicts.append(Verdict(workload, "correct", bool(wrong),
                            f"{len(wrong)} of {len(head)} head runs incorrect"
                            + (f": {wrong[0]}" if wrong else "")))
    base_share, head_share = failed_share(base), failed_share(head)
    verdicts.append(Verdict(
        workload, "failed_share", head_share > base_share,
        f"base {base_share:.3f}, head {head_share:.3f}"))
    for entry in end_to_end:
        name = entry["name"]
        head_values = [run.metrics.get(name) for run in head]
        base_values = [run.metrics.get(name) for run in base]
        present = [value for value in head_values if value is not None]
        if all(value is None for value in base_values):
            verdicts.append(Verdict(
                workload, name, False,
                f"head median {median(present) if present else float('nan'):.4g}"
                f"; not gated: base lacks it"))
            continue
        reading = judge_metric(base_values, head_values, entry["better"],
                               float(entry.get("bound", 0.0)))
        change = (reading["head_median"] / reading["base_median"] - 1.0
                  if reading["base_median"] else 0.0)
        detail = (f"base {reading['base_median']:.4g} "
                  f"[IQR {reading['base_iqr']:.3g}], "
                  f"head {reading['head_median']:.4g} ({change:+.1%}), "
                  f"worse by > {entry.get('bound', 0.0):g} "
                  f"in {reading['worse_pairs']}/{reading['pairs']} pairs")
        if "bound" not in entry:
            verdicts.append(Verdict(workload, name, False,
                                    detail + "; not gated: no bound"))
            continue
        if reading["base_iqr"] > entry["bound"] * abs(reading["base_median"]):
            # Runs this noisy cannot show a regression the size of the bound.
            detail += "; unresolved: base IQR exceeds the bound"
        verdicts.append(Verdict(workload, name, reading["regressed"], detail))
    return verdicts


def compare_outputs(base: Sequence[Run], head: Sequence[Run]) -> str:
    """Whether base and head produced the same outputs, by their digests."""
    runs = list(base) + list(head)
    missing = sum(1 for run in runs if not run.digest)
    if missing:
        return f"outputs not compared: {missing} of {len(runs)} runs reported no digest"
    digests = {side: sorted({run.digest for run in side_runs})
               for side, side_runs in (("base", base), ("head", head))}
    if len(digests["base"]) == 1 and digests["base"] == digests["head"]:
        return "outputs identical"
    return "outputs differ ({})".format(", ".join(
        f"{side} {' '.join(digest[:12] for digest in side_digests)}"
        for side, side_digests in digests.items()))


def report(runs: Dict[str, Dict[str, List[Run]]], benchmark: dict,
           out=sys.stdout) -> List[Verdict]:
    """Print every verdict and the run walls; return the failed ones."""
    failures = []
    for workload, sides in runs.items():
        walls = {side: [round(run.wall_s, 1) for run in side_runs]
                 for side, side_runs in sides.items()}
        print(f"\n{workload}: walls (s) base {walls['base']}, "
              f"head {walls['head']}", file=out)
        print(f"  {compare_outputs(sides['base'], sides['head'])}", file=out)
        for verdict in judge_workload(workload, sides["base"], sides["head"],
                                      benchmark["end_to_end"]):
            mark = "FAIL" if verdict.failed else "ok"
            print(f"  {mark:<4} {verdict.metric:<16} {verdict.detail}", file=out)
            if verdict.failed:
                failures.append(verdict)
    return failures


def judge_claim(base: Sequence[Optional[float]], head: Sequence[Optional[float]],
                better: str) -> dict:
    """The gain rule for one metric; ``met`` is the verdict.

    ``base[i]`` and ``head[i]`` are pair ``i``'s values (``None`` where a
    run has no result).  Head must win at least :data:`CLAIM_WIN_SHARE` of
    all pairs run, ties counting for neither side, and its median must beat
    base's by more than base's IQR.
    """
    sign = 1.0 if better == "lower" else -1.0
    paired = [(b, h) for b, h in zip(base, head)
              if b is not None and h is not None]
    wins = sum(1 for b, h in paired if sign * (b - h) > 0)
    ties = sum(1 for b, h in paired if b == h)
    base_values = [b for b, _ in paired]
    head_values = [h for _, h in paired]
    base_median = median(base_values) if paired else 0.0
    head_median = median(head_values) if paired else 0.0
    gain = sign * (base_median - head_median)
    spread = iqr(base_values)
    pairs = max(len(base), len(head))
    return {
        "pairs": pairs,
        "wins": wins,
        "ties": ties,
        "losses": len(paired) - wins - ties,
        "base_median": base_median,
        "base_quartiles": quartiles(base_values),
        "head_median": head_median,
        "head_quartiles": quartiles(head_values),
        "gain": gain,
        "base_iqr": spread,
        "met": bool(pairs) and wins >= CLAIM_WIN_SHARE * pairs and gain > spread,
    }


def report_claim(workload: str, metric: str, better: str, sides: Dict[str, List[Run]],
                 out=sys.stdout) -> bool:
    """Print the reading of one claimed gain; return whether it is met."""
    base, head = sides["base"], sides["head"]
    reading = judge_claim([run.metrics.get(metric) for run in base],
                          [run.metrics.get(metric) for run in head], better)
    change = (reading["head_median"] / reading["base_median"] - 1.0
              if reading["base_median"] else 0.0)
    wrong = [run.error or "correct: false" for run in base + head
             if not run.correct]
    print(f"\nclaim {workload}/{metric} ({better} is better), "
          f"{reading['pairs']} pairs:", file=out)
    for side in ("base", "head"):
        first, third = reading[f"{side}_quartiles"]
        values = " ".join(f"{run.metrics[metric]:.4g}" if metric in run.metrics
                          else "-" for run in sides[side])
        print(f"  {side}: median {reading[f'{side}_median']:.4g} "
              f"[Q1 {first:.4g}, Q3 {third:.4g}]; runs {values}", file=out)
    print(f"  head better in {reading['wins']} of {reading['pairs']} pairs "
          f"(needs {CLAIM_WIN_SHARE:.0%}), {reading['ties']} tied, "
          f"{reading['losses']} worse", file=out)
    print(f"  median gain {reading['gain']:.4g} ({change:+.1%}) against base "
          f"IQR {reading['base_iqr']:.4g}", file=out)
    print(f"  {compare_outputs(base, head)}", file=out)
    if wrong:
        print(f"  {len(wrong)} of {len(base) + len(head)} runs incorrect: "
              f"{wrong[0]}", file=out)
    met = reading["met"] and not wrong
    print(f"claim {'met' if met else 'NOT met'}: {workload}/{metric}", file=out)
    return met


def claim(args: argparse.Namespace, benchmark: dict, out=sys.stdout) -> int:
    """Run and judge ``--claim WORKLOAD/METRIC``."""
    workload, _, metric = args.claim.partition("/")
    workloads = [entry for entry in benchmark["workloads"]
                 if entry["name"] == workload]
    metrics = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    if not workloads or metric not in metrics:
        print(f"--claim {args.claim}: expected WORKLOAD/METRIC with a workload "
              f"of {[entry['name'] for entry in benchmark['workloads']]} and an "
              f"end-to-end metric of {sorted(metrics)}", file=out)
        return 2
    start = time.perf_counter()
    runs = collect(args.base.resolve(), args.head.resolve(),
                   dict(benchmark, workloads=workloads), pairs=CLAIM_PAIRS,
                   seed=args.seed)
    met = report_claim(workload, metric, metrics[metric]["better"],
                       runs[workload], out=out)
    print(f"{CLAIM_PAIRS} pairs at seed {args.seed}, "
          f"{benchmark['run_seconds']} s a run; wall "
          f"{time.perf_counter() - start:.0f} s", file=out)
    return 0 if met else 1


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path,
                        help="checkout of the commit to compare against")
    parser.add_argument("--head", required=True, type=Path,
                        help="checkout of the commit under test")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="check a claimed gain of one end-to-end metric "
                             "on one workload instead of the regression gate")
    parser.add_argument("--seed", type=int,
                        help=f"perfbench seed of a --claim run, one the change "
                             f"was not developed on (the gate runs at {SEED})")
    args = parser.parse_args(argv)
    if (args.claim is None) != (args.seed is None):
        parser.error("--claim and --seed go together")
    for checkout, needed in ((args.base, "perfbench/run.py"),
                             (args.head, "perfbench/run.py"),
                             (args.head, "BENCHMARK.json")):
        if not (checkout / needed).is_file():
            print(f"{checkout}: no {needed}", file=out)
            return 2
    benchmark = load_benchmark(args.head)
    if args.claim is not None:
        return claim(args, benchmark, out=out)
    start = time.perf_counter()
    runs = collect(args.base.resolve(), args.head.resolve(), benchmark)
    failures = report(runs, benchmark, out=out)
    print(f"\n{PAIRS} pairs per workload at seed {SEED}, "
          f"{benchmark['run_seconds']} s a run; gate wall "
          f"{time.perf_counter() - start:.0f} s", file=out)
    if failures:
        print("perf gate FAILED: " + ", ".join(
            f"{v.workload}/{v.metric}" for v in failures), file=out)
        return 1
    print("perf gate passed", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
