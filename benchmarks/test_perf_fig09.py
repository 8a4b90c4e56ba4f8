"""Micro-benchmark: aspect-classifier training and inference throughput.

Times the classifier stack at ``smoke`` scale — suite training
(paragraphs/second through the ``fit_matrix`` kernel) and full-corpus page
scoring through ``page_assessment`` (the "batched" row) versus the
dict-based per-paragraph reference ``tests.oracles.reference_page_assessment``
(the "scalar" row) — and writes a machine-readable ``BENCH_fig09.json`` next
to the other benchmark results, so successive changes can track the
classifier throughput trajectory.  Bit-identity of the production scores
with the scalar reference is asserted alongside the timing.

Run with ``python -m pytest benchmarks/test_perf_fig09.py -q``.
"""

from __future__ import annotations

import json
import platform
import time

import numpy as np
import scipy

from repro.aspects.classifier import AspectClassifierSuite
from repro.eval.experiments import SMOKE_SCALE

from tests.oracles import reference_page_assessment

DOMAINS = ("researcher", "car")


def test_fig09_classifier_benchmark(results_dir):
    report = {
        "scale": SMOKE_SCALE.name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "domains": {},
    }
    for domain in DOMAINS:
        corpus = SMOKE_SCALE.corpus_for(domain)
        num_paragraphs = sum(1 for _ in corpus.iter_paragraphs())

        started = time.perf_counter()
        suite = AspectClassifierSuite.train_on_corpus(corpus)
        train_seconds = time.perf_counter() - started

        pages = list(corpus.iter_pages())
        aspects = corpus.aspects
        assessments = sum(len(page.paragraphs) for page in pages) * len(aspects)

        started = time.perf_counter()
        batched = [suite.page_assessment(page, aspect)
                   for page in pages for aspect in aspects]
        batched_seconds = time.perf_counter() - started

        started = time.perf_counter()
        scalar = [reference_page_assessment(suite, page, aspect)
                  for page in pages for aspect in aspects]
        scalar_seconds = time.perf_counter() - started

        # Production must reproduce the scalar reference bit for bit.
        assert batched == scalar

        accuracies = [row.accuracy for row in suite.accuracy_report()]
        report["domains"][domain] = {
            "paragraphs": num_paragraphs,
            "train_seconds": train_seconds,
            "train_paragraphs_per_second": (
                num_paragraphs / train_seconds if train_seconds > 0 else None),
            "scored_paragraph_assessments": assessments,
            "batched_score_seconds": batched_seconds,
            "batched_paragraphs_per_second": (
                assessments / batched_seconds if batched_seconds > 0 else None),
            "scalar_score_seconds": scalar_seconds,
            "scalar_paragraphs_per_second": (
                assessments / scalar_seconds if scalar_seconds > 0 else None),
            "speedup_vs_scalar": (
                scalar_seconds / batched_seconds if batched_seconds > 0
                else None),
            "mean_accuracy": sum(accuracies) / len(accuracies),
        }

    path = results_dir / "BENCH_fig09.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\n===== BENCH_fig09 =====\n{json.dumps(report, indent=2)}\n")

    for domain in DOMAINS:
        stats = report["domains"][domain]
        assert stats["paragraphs"] > 0
        assert stats["train_paragraphs_per_second"] > 0
        assert stats["batched_paragraphs_per_second"] > 0
        assert stats["mean_accuracy"] >= 0.85
