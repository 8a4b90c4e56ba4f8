"""Micro-benchmark: harvesting throughput per execution backend.

Runs the same batch of harvesting jobs through every built-in execution
backend at ``smoke`` scale and writes a machine-readable
``BENCH_harvest.json`` next to the other benchmark results, so successive
PRs can track the execution-layer throughput trajectory:

* ``pages_per_second`` — result pages folded into working sets per
  wall-clock second (seed pages included);
* ``jobs_per_second`` — complete harvesting runs per second;
* ``speedup_vs_serial`` — wall-clock ratio against the serial engine on
  this machine (expect ~1.0 on single-core CI runners: the numbers exist
  to catch regressions, not to advertise).

Determinism is asserted alongside the timing: every backend must produce
the same queries and page ids as serial.

A ``preparation`` section records what the shared corpus store buys the
process backend: worker-side corpus preparation seconds with the store off
(every worker regenerates) versus on (every worker attaches zero-copy),
plus the orchestrator's one-time publish cost.

Run with ``python -m pytest benchmarks/test_perf_harvest.py -q``.
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro import perf
from repro.eval.experiments import SMOKE_SCALE
from repro.eval.runner import ExperimentRunner

from tests.helpers import harvest_signature as _signature

METHODS = ("L2QBAL", "L2QP", "RND", "MQ")
NUM_QUERIES = 3
#: Worker count for the parallel backends; override with
#: ``REPRO_BENCH_WORKERS`` on multi-core runners so the recorded speedups
#: reflect the hardware (the default 2 keeps laptop runs cheap).
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
BACKENDS = ("serial", "process")


def _pages_gathered(results):
    return sum(len(run.seed_page_ids)
               + sum(len(record.result_page_ids) for record in run.iterations)
               for run in results)


def test_harvest_backend_benchmark(results_dir):
    corpus = SMOKE_SCALE.corpus_for("researcher")

    def fresh_batch():
        # Every backend is timed against cold state: a fresh engine (empty
        # index, empty result cache) and fresh single-use jobs.  Reusing
        # one engine would time later backends against caches the earlier
        # ones warmed, making the comparison meaningless.  Seeds derive
        # from (split, method, entity, aspect), so every batch is
        # identical work.
        runner = ExperimentRunner(corpus)
        split = runner.default_split(0)
        prepared = runner.prepare(split)
        aspects = SMOKE_SCALE.aspects_for(corpus)
        entities = list(split.test_entities)[: SMOKE_SCALE.max_test_entities or 2]
        jobs = [runner.build_job(prepared, method, entity_id, aspect, NUM_QUERIES)
                for method in METHODS
                for aspect in aspects
                for entity_id in entities]
        return runner.harvester_for(prepared), jobs

    report = {
        "scale": SMOKE_SCALE.name,
        "num_queries": NUM_QUERIES,
        "workers": WORKERS,
        "python": platform.python_version(),
        "jobs": len(fresh_batch()[1]),
        "backends": {},
    }
    signatures = {}
    serial_seconds = None
    for backend in BACKENDS:
        harvester, batch = fresh_batch()
        started = time.perf_counter()
        results = harvester.harvest_many(batch, workers=WORKERS, backend=backend)
        elapsed = time.perf_counter() - started
        if backend == "serial":
            serial_seconds = elapsed
        pages = _pages_gathered(results)
        signatures[backend] = [_signature(r) for r in results]
        report["backends"][backend] = {
            "wall_seconds": elapsed,
            "pages_gathered": pages,
            "pages_per_second": pages / elapsed if elapsed > 0 else None,
            "jobs_per_second": len(results) / elapsed if elapsed > 0 else None,
            "speedup_vs_serial": (serial_seconds / elapsed
                                  if elapsed > 0 and serial_seconds else None),
        }

    process_preparation = _store_preparation(corpus)
    report["preparation"] = {
        "process": process_preparation,
        "classifier": process_preparation.pop("classifier"),
    }

    path = results_dir / "BENCH_harvest.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\n===== BENCH_harvest =====\n{json.dumps(report, indent=2)}\n")

    # Sanity: every backend ran the full batch, gathered pages, and — the
    # acceptance bar of the refactor — reproduced serial bit-for-bit.
    for backend in BACKENDS:
        entry = report["backends"][backend]
        assert entry["pages_gathered"] > 0
        assert entry["pages_per_second"] > 0
        assert signatures[backend] == signatures["serial"]
    # The store must actually have attached (zero index rebuilds) and the
    # rebuild baseline must actually have rebuilt.
    prep = report["preparation"]["process"]
    assert prep["attach"]["attached"] and prep["attach"]["index_builds"] == 0
    assert prep["rebuild"]["corpus_rebuilds"] > 0
    # Classifier suites ship through the store: with it on, no worker batch
    # retrained anything, and attaching a trained suite beats training one
    # by a wide margin even at smoke scale.
    classifier = report["preparation"]["classifier"]
    assert prep["rebuild"]["worker_classifier_trainings"] > 0
    assert prep["attach"]["worker_classifier_trainings"] == 0
    assert prep["attach"]["classifier_attached"]
    assert classifier["trainings"] > 0 and classifier["attaches"] > 0
    assert classifier["attach_speedup"] >= 5


def _store_preparation(corpus):
    """Worker-side preparation cost with the corpus store off vs on.

    The per-phase worker timings ship home through the batch outcomes and
    fold into the orchestrator's recorder, so the totals below cover every
    worker in the pool.
    """
    def distributed_run(corpus_store):
        rec = perf.enable()
        try:
            runner = ExperimentRunner(
                corpus, base_seed=5, workers=WORKERS, backend="process",
                corpus_spec=SMOKE_SCALE.corpus_spec_for("researcher"),
                corpus_store=corpus_store)
            try:
                runner.evaluate_methods(("RND",), num_queries_list=(NUM_QUERIES,),
                                        num_splits=2, max_test_entities=2,
                                        aspects=("RESEARCH",))
            finally:
                runner.release_store()
        finally:
            perf.disable()
        outcomes = runner.last_batch_outcomes
        return {
            "corpus_attach_seconds": rec.total("corpus-attach"),
            "corpus_attaches": rec.count("corpus-attach"),
            "corpus_rebuild_seconds": rec.total("corpus-rebuild"),
            "corpus_rebuilds": rec.count("corpus-rebuild"),
            "store_publish_seconds": rec.total("store-publish"),
            "classifier_train_seconds": rec.total("classifier-train"),
            "classifier_trainings": rec.count("classifier-train"),
            "classifier_attach_seconds": rec.total("classifier-attach"),
            "classifier_attaches": rec.count("classifier-attach"),
            "attached": all(o.attached for o in outcomes),
            "index_builds": sum(o.index_builds for o in outcomes),
            "worker_classifier_trainings": sum(o.classifier_trainings
                                               for o in outcomes),
            "classifier_attached": all(o.classifier_attached
                                       for o in outcomes),
        }

    rebuild = distributed_run("off")
    attach = distributed_run("auto")
    attach_seconds = attach["corpus_attach_seconds"]
    # Train vs attach: with the store off every worker trains its split's
    # suite; with the store on the orchestrator trains once at publish
    # ("classifier-train" samples of the attach run) and every worker
    # attaches zero-copy.  The per-attach cost is what the store buys.
    trainings = rebuild["classifier_trainings"]
    attaches = attach["classifier_attaches"]
    train_per = (rebuild["classifier_train_seconds"] / trainings
                 if trainings else None)
    attach_per = (attach["classifier_attach_seconds"] / attaches
                  if attaches else None)
    classifier = {
        "train_seconds": rebuild["classifier_train_seconds"],
        "trainings": trainings,
        "attach_seconds": attach["classifier_attach_seconds"],
        "attaches": attaches,
        "publish_train_seconds": attach["classifier_train_seconds"],
        "publish_trainings": attach["classifier_trainings"],
        "train_seconds_per_suite": train_per,
        "attach_seconds_per_suite": attach_per,
        "attach_speedup": (train_per / attach_per
                           if train_per and attach_per else None),
    }
    return {
        "rebuild": rebuild,
        "attach": attach,
        "preparation_speedup": (
            rebuild["corpus_rebuild_seconds"] / attach_seconds
            if attach_seconds else None),
        "classifier": classifier,
    }
