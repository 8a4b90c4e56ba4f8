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
from typing import Dict, List, Optional, Sequence

#: Alternating base/head pairs per workload.
PAIRS = 5
#: The one perfbench seed every run uses.  Seeds 1-10 calibrated the
#: benchmark's bounds (perfbench/README.md); 11 is the first one that did not.
SEED = 11
#: A run that takes longer than this many times ``run_seconds`` (plus a
#: minute for set-up) is stopped and counts as a run without a result.
TIMEOUT_FACTOR = 10


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


def perfbench_command(benchmark: dict, workload: str, seconds: int) -> List[str]:
    """The benchmark's command for one untraced run, on this interpreter."""
    command = list(benchmark["command"])
    if command and Path(command[0]).name.startswith("python"):
        command[0] = sys.executable
    return command + ["--workload", workload, "--seed", str(SEED),
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
            log=sys.stderr) -> Dict[str, Dict[str, List[Run]]]:
    """``{workload: {"base": [runs], "head": [runs]}}``, alternating sides."""
    seconds = int(benchmark["run_seconds"])
    runs: Dict[str, Dict[str, List[Run]]] = {}
    for entry in benchmark["workloads"]:
        workload = entry["name"]
        command = perfbench_command(benchmark, workload, seconds)
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


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = quantiles(values, n=4, method="inclusive")
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


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path,
                        help="checkout of the commit to compare against")
    parser.add_argument("--head", required=True, type=Path,
                        help="checkout of the commit under test")
    args = parser.parse_args(argv)
    for checkout, needed in ((args.base, "perfbench/run.py"),
                             (args.head, "perfbench/run.py"),
                             (args.head, "BENCHMARK.json")):
        if not (checkout / needed).is_file():
            print(f"{checkout}: no {needed}", file=out)
            return 2
    benchmark = load_benchmark(args.head)
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
