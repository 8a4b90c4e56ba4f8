"""Benchmark driver for the L2Q reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload l2q-sessions --seed 1 --seconds 20 --trace 0

Workloads: ``l2q-sessions``, ``fig13`` and ``campaign-sweep`` (see
``perfbench/README.md``).  With ``--trace 0`` the run repeats closed-loop
passes for ``--seconds`` (at least three) and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it stamps the environment and the output digests.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
MIN_PASSES = 3

#: End-to-end metrics: name -> unit.  Must match BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "select_p50_ms": "ms",
    "select_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "completed_ratio": "ratio",
    "f_score": "ratio",
}

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "BLIS_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("l2q-sessions", "fig13", "campaign-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def stamp() -> dict:
    """nproc, CPU model, interpreter and library versions, commit."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit()}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_pids():
    """Process ids whose parent is this process."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Process pools are closed by the workloads; what can remain is
    multiprocessing's resource tracker (started by any shared-memory use).
    The program's published stores are released first, so that no exit
    hook restarts the tracker; the tracker is then stopped the way it
    expects (it ignores SIGTERM), and any other child is killed.
    """
    store = sys.modules.get("repro.store.corpus_store")
    if hasattr(store, "release_all"):
        store.release_all()
    tracer = sys.modules.get("tracer")
    if tracer is not None:
        tracer.stop_resource_tracker()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def run_pass(workload, tracer, traced: bool):
    """One pass; its outputs are inspected afterwards, with tracing off."""
    gc.collect()  # start every pass from the same heap
    tracer.take()
    tracer.restart()
    tracer.enabled = traced
    try:
        outcome = workload.run_pass()
    finally:
        tracer.enabled = False
        tracer.lap("tail")
    records = tracer.take()
    if outcome.outputs is not None:
        outcome.digest, outcome.f_score, errors = workload.inspect(outcome.outputs)
        outcome.errors += errors
        outcome.outputs = None
    return outcome, records, traced


def run_passes(workload, tracer_module, trace: bool, seconds: int):
    """Run passes; returns ``[(pass, records, traced)]``.

    Untraced: at least MIN_PASSES, until ``seconds`` have elapsed.  Traced:
    traced, untraced, traced, then traced until ``seconds``.  Every
    estimate below is a median over passes, so a first pass slowed by lazy
    imports and first-touch page faults does not move it.
    """
    tracer = tracer_module.TRACER
    plan = [True, False, True] if trace else [False] * MIN_PASSES
    done = []
    start = time.perf_counter()
    while plan or time.perf_counter() - start < seconds:
        done.append(run_pass(workload, tracer, plan.pop(0) if plan else trace))
    return done


def selection_samples(passes):
    """Per-selection latency in ms at reference speed, or ``None``.

    Every pass repeats the same sessions and selections; each selection is
    rescaled by its session's factor and taken at its median over passes.
    """
    logs = [records.sessions for _, records, _ in passes]
    shapes = {tuple(len(selections) for _, _, selections in log) for log in logs}
    if len(shapes) != 1:
        return None
    rescaled = [[[seconds * (scaled / wall if wall else 1.0)
                  for seconds in selections]
                 for wall, scaled, selections in log] for log in logs]
    return [median(log[i][j] for log in rescaled) * 1000.0
            for i, session in enumerate(rescaled[0])
            for j in range(len(session))]


def summarise(workload, passes, trace: bool, tracer_module):
    errors = [error for outcome, _, _ in passes for error in outcome.errors]
    digests = {outcome.digest for outcome, _, _ in passes}
    if len(digests) != 1 or "" in digests:
        errors.append(f"passes disagree on their output digest: {sorted(digests)}")
    if len({outcome.f_score for outcome, _, _ in passes}) != 1:
        errors.append("passes disagree on f_score")
    attempted = sum(outcome.attempted for outcome, _, _ in passes)
    failed = sum(outcome.failed for outcome, _, _ in passes)
    info = {"workload": workload.name, "seed": workload.seed,
            "corpus_seed": workload.scale.corpus_seed,
            "base_seed": workload.base_seed, "passes": len(passes),
            "digest": sorted(digests)[0],
            "passes_s": [[round(o.setup_s, 4), round(o.pass_s, 4), traced]
                         for o, _, traced in passes]}

    if not trace:
        timings = [workload.timings(records) for _, records, _ in passes]
        info["rescaled_s"] = [[round(setup, 4), round(pass_s, 4)]
                              for setup, pass_s in timings]
        samples = selection_samples(passes)
        if samples is None:
            errors.append("passes disagree on their sessions and selections")
            samples = []
        info["sessions_per_pass"] = len(passes[0][1].sessions)
        info["select_samples"] = len(samples)
        if len(samples) < 200:
            errors.append(f"only {len(samples)} selection samples; p95 needs "
                          f">= 200 for 10 beyond it")
        metrics = {
            "setup_s": median(setup for setup, _ in timings),
            "pass_s": median(pass_s for _, pass_s in timings),
            "select_p50_ms": percentile(samples, 0.50) if samples else 0.0,
            "select_p95_ms": percentile(samples, 0.95) if samples else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "completed_ratio": 1.0 - failed / attempted if attempted else 0.0,
            "f_score": passes[0][0].f_score,
        }
        units = END_TO_END
    else:
        traced = [(o, tracer_module.layer_metrics(r)) for o, r, t in passes if t]
        untraced = [o for o, _, t in passes if not t]
        for name in tracer_module.EXACT_COUNTS:
            values = {layers[name] for _, layers in traced}
            if len(values) != 1:
                errors.append(f"exact count {name} differs between traced "
                              f"passes: {sorted(values)}")
        metrics = {name: sum(layers[name] for _, layers in traced) / len(traced)
                   for name in tracer_module.layer_metric_names()
                   if name != "trace.overhead_s"}
        traced_wall = median([o.setup_s + o.pass_s for o, _ in traced])
        untraced_wall = median([o.setup_s + o.pass_s for o in untraced])
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        info["absent_layers"] = sorted(set(tracer_module.TRACER.absent))
        units = {name: unit_of(name, tracer_module)
                 for name in tracer_module.layer_metric_names()}
    errors += check_declared(metrics, trace)
    info["errors"] = errors[:20]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return info, result


def unit_of(name: str, tracer_module) -> str:
    if name in tracer_module.COUNT_METRICS:
        return tracer_module.COUNT_METRICS[name][0]
    return "s"


def check_declared(metrics, trace: bool):
    """The reported names must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return []
    declared = json.loads(path.read_text())["per_layer" if trace else "end_to_end"]
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(metrics):
        return [f"reported metrics differ from BENCHMARK.json: "
                f"{sorted(set(names) ^ set(metrics))}"]
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    # Before numpy is imported: one BLAS/OpenMP thread per process, so the
    # process workers of campaign-sweep do not oversubscribe the cores.
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    sys.path.insert(0, str(source))
    try:
        import tracer
        import workloads

        tracer.install()
        workload = workloads.make_workload(args.workload, args.seed, run_dir)
        passes = run_passes(workload, tracer, bool(args.trace), args.seconds)
        info, result = summarise(workload, passes, bool(args.trace), tracer)
        info["stamp"] = stamp()
    finally:
        stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
