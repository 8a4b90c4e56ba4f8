"""One schema over every committed benchmark artifact.

``benchmarks/results/`` accumulates one ``BENCH_*.json`` per benchmark
family, each with its own ad-hoc layout (per-backend throughput, per-method
selection latency, robustness matrices).  The *manifest* folds them all
into a single machine-readable index — ``BENCH_manifest.json`` — with one
flat entry list under one schema:

``source``
    The artifact file the entry was extracted from.
``benchmark`` / ``kind``
    Benchmark family (``harvest``, ``selection``, ``scenarios`` ...) and
    entry kind (``backend-throughput``, ``selection-latency``,
    ``robustness-matrix``, ``unclassified``).
``scale`` / ``backend`` / ``method``
    Where the number came from (``backend``/``method`` are ``None`` where
    not applicable).
``versions``
    Toolchain versions recorded *in the artifact* (never the regenerating
    interpreter's — the manifest must be a pure function of the files).
``wall_seconds`` / ``pages_per_second`` / ``speedup_vs_serial``
    The unified performance axis; ``None`` where the artifact has no
    wall-clock dimension (robustness matrices are deliberately
    wall-clock-free).
``metrics``
    Whatever else the family reports, carried through untruncated.

Determinism is the design constraint: :func:`build_manifest` reads files
and emits sorted JSON — no timestamps, no environment probes — so CI can
regenerate the committed manifest and ``git diff --exit-code`` it as a
freshness gate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

#: Identifier of the manifest layout (bump on breaking changes).
MANIFEST_SCHEMA = "BENCH_manifest/v1"

#: Canonical file name of the committed manifest.
MANIFEST_NAME = "BENCH_manifest.json"

KIND_BACKEND_THROUGHPUT = "backend-throughput"
KIND_SELECTION_LATENCY = "selection-latency"
KIND_ROBUSTNESS_MATRIX = "robustness-matrix"
KIND_CAMPAIGN_RUN = "campaign-run"
KIND_UNCLASSIFIED = "unclassified"


def _entry(source: str, benchmark: str, kind: str,
           scale: Optional[str] = None, backend: Optional[str] = None,
           method: Optional[str] = None,
           versions: Optional[Dict[str, str]] = None,
           wall_seconds: Optional[float] = None,
           pages_per_second: Optional[float] = None,
           speedup_vs_serial: Optional[float] = None,
           metrics: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """One manifest entry with every unified field present (None-padded)."""
    return {
        "source": source,
        "benchmark": benchmark,
        "kind": kind,
        "scale": scale,
        "backend": backend,
        "method": method,
        "versions": versions or {},
        "wall_seconds": wall_seconds,
        "pages_per_second": pages_per_second,
        "speedup_vs_serial": speedup_vs_serial,
        "metrics": metrics or {},
    }


def _harvest_entries(source: str, report: Dict[str, object]) -> List[Dict[str, object]]:
    """Per-backend throughput entries from ``BENCH_harvest.json``."""
    versions = {"python": report.get("python")}
    preparation = report.get("preparation", {})
    entries = []
    for backend in sorted(report.get("backends", {})):
        stats = report["backends"][backend]
        metrics = {
            "jobs": report.get("jobs"),
            "jobs_per_second": stats.get("jobs_per_second"),
            "pages_gathered": stats.get("pages_gathered"),
            "workers": report.get("workers"),
        }
        if backend in preparation:
            # Corpus-store preparation cost (attach vs rebuild seconds per
            # worker pool, publish cost, attach probes) rides along
            # untruncated for the backends that measured it — as does the
            # classifier train-vs-attach section measured on that backend.
            metrics["preparation"] = preparation[backend]
            if backend == "process" and "classifier" in preparation:
                metrics["classifier_preparation"] = preparation["classifier"]
        entries.append(_entry(
            source=source,
            benchmark="harvest",
            kind=KIND_BACKEND_THROUGHPUT,
            scale=report.get("scale"),
            backend=backend,
            versions=versions,
            wall_seconds=stats.get("wall_seconds"),
            pages_per_second=stats.get("pages_per_second"),
            speedup_vs_serial=stats.get("speedup_vs_serial"),
            metrics=metrics,
        ))
    return entries


def _fig09_entries(source: str, report: Dict[str, object]) -> List[Dict[str, object]]:
    """Classifier-throughput entries from ``BENCH_fig09.json``.

    Three entries per domain — suite training, the batched page-scoring
    kernel, and its scalar oracle — on the unified throughput axis
    (``pages_per_second`` carries paragraphs/second here).
    """
    versions = {"python": report.get("python"),
                "numpy": report.get("numpy"),
                "scipy": report.get("scipy")}
    entries = []
    for domain in sorted(report.get("domains", {})):
        stats = report["domains"][domain]
        metrics = {
            "paragraphs": stats.get("paragraphs"),
            "scored_paragraph_assessments":
                stats.get("scored_paragraph_assessments"),
            "mean_accuracy": stats.get("mean_accuracy"),
        }
        for backend, seconds_key, rate_key, speedup in (
                ("train", "train_seconds",
                 "train_paragraphs_per_second", None),
                ("batched", "batched_score_seconds",
                 "batched_paragraphs_per_second",
                 stats.get("speedup_vs_scalar")),
                ("scalar", "scalar_score_seconds",
                 "scalar_paragraphs_per_second", None)):
            entries.append(_entry(
                source=source,
                benchmark="fig09",
                kind=KIND_BACKEND_THROUGHPUT,
                scale=report.get("scale"),
                backend=f"{domain}/{backend}",
                versions=versions,
                wall_seconds=stats.get(seconds_key),
                pages_per_second=stats.get(rate_key),
                speedup_vs_serial=speedup,
                metrics=metrics,
            ))
    return entries


def _selection_entries(source: str, report: Dict[str, object]) -> List[Dict[str, object]]:
    """Per-method selection-latency entries from ``BENCH_selection.json``."""
    versions = {"python": report.get("python"),
                "numpy": report.get("numpy"),
                "scipy": report.get("scipy")}
    entries = []
    for method in sorted(report.get("methods", {})):
        stats = report["methods"][method]
        entries.append(_entry(
            source=source,
            benchmark="selection",
            kind=KIND_SELECTION_LATENCY,
            scale=report.get("scale"),
            method=method,
            versions=versions,
            wall_seconds=stats.get("mean_selection_seconds"),
            metrics={
                "cache_hit_rate": report.get("cache_hit_rate"),
                "queries_measured": stats.get("queries_measured"),
                "selection_queries_per_second":
                    stats.get("selection_queries_per_second"),
                "selection_to_fetch_ratio":
                    stats.get("selection_to_fetch_ratio"),
            },
        ))
    return entries


def _scenario_entries(source: str, report: Dict[str, object]) -> List[Dict[str, object]]:
    """One robustness-matrix entry per scenario-matrix artifact.

    These artifacts are deliberately wall-clock-free (byte-for-byte
    reproducible), so the unified timing fields stay ``None``; the summary
    deltas ride along as metrics.
    """
    benchmark = Path(source).stem.replace("BENCH_", "")
    return [_entry(
        source=source,
        benchmark=benchmark,
        kind=KIND_ROBUSTNESS_MATRIX,
        scale=report.get("scale"),
        metrics={
            "schema": report.get("schema"),
            "methods": report.get("methods"),
            "scenarios": report.get("scenarios"),
            "summary": report.get("summary"),
        },
    )]


def _campaign_entries(source: str, report: Dict[str, object]) -> List[Dict[str, object]]:
    """One campaign-run entry per ``BENCH_campaign*.json`` artifact.

    Campaign summaries carry checkpoint/resume counters (cells total /
    skipped / executed / remaining, journal anomalies) plus the
    campaign-level perf phase aggregates when profiling was on.  The
    unified timing fields stay ``None`` — the resume ledger, not a
    throughput number, is the signal here; phase wall-clock rides along
    in ``metrics``.
    """
    return [_entry(
        source=source,
        benchmark=Path(source).stem.replace("BENCH_", ""),
        kind=KIND_CAMPAIGN_RUN,
        scale=report.get("scale"),
        backend=report.get("backend"),
        versions={},
        metrics={
            "campaign": report.get("campaign"),
            "workers": report.get("workers"),
            "domains": report.get("domains"),
            "scenarios": report.get("scenarios"),
            "methods": report.get("methods"),
            "seeds": report.get("seeds"),
            "cells": report.get("cells"),
            "journal": report.get("journal"),
            "complete": report.get("complete"),
            "phases": report.get("phases"),
        },
    )]


def _unclassified_entry(source: str, report: object) -> List[Dict[str, object]]:
    """Forward-compatible fallback for artifact families this version
    predates: the manifest indexes them without interpreting them."""
    metrics: Dict[str, object] = {}
    if isinstance(report, dict):
        metrics = {"schema": report.get("schema"),
                   "top_level_keys": sorted(report)}
    return [_entry(source=source,
                   benchmark=Path(source).stem.replace("BENCH_", ""),
                   kind=KIND_UNCLASSIFIED,
                   scale=report.get("scale") if isinstance(report, dict) else None,
                   metrics=metrics)]


def manifest_entries(results_dir) -> List[Dict[str, object]]:
    """Extract unified entries from every ``BENCH_*.json`` in a directory.

    Files are visited in sorted order and the manifest itself is skipped,
    so the entry list is a deterministic function of the artifact files.
    """
    results_dir = Path(results_dir)
    entries: List[Dict[str, object]] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.name == MANIFEST_NAME:
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        if path.name == "BENCH_harvest.json":
            entries.extend(_harvest_entries(path.name, report))
        elif path.name == "BENCH_fig09.json":
            entries.extend(_fig09_entries(path.name, report))
        elif path.name == "BENCH_selection.json":
            entries.extend(_selection_entries(path.name, report))
        elif isinstance(report, dict) and \
                str(report.get("schema", "")).startswith("BENCH_scenarios/"):
            entries.extend(_scenario_entries(path.name, report))
        elif isinstance(report, dict) and \
                str(report.get("schema", "")).startswith("BENCH_campaign/"):
            entries.extend(_campaign_entries(path.name, report))
        else:
            entries.extend(_unclassified_entry(path.name, report))
    return entries


def campaigns_block(entries: List[Dict[str, object]]) -> Dict[str, object]:
    """The ``campaigns`` block: resume ledgers keyed by campaign name.

    One compact record per campaign-run entry, so checkpoint/resume
    health (cells skipped vs executed, journal anomalies, completion) is
    readable straight off the manifest without digging through entries.
    """
    campaigns: Dict[str, object] = {}
    for entry in entries:
        if entry.get("kind") != KIND_CAMPAIGN_RUN:
            continue
        metrics = entry.get("metrics", {})
        name = metrics.get("campaign") or entry["benchmark"]
        campaigns[str(name)] = {
            "source": entry["source"],
            "scale": entry.get("scale"),
            "backend": entry.get("backend"),
            "cells": metrics.get("cells"),
            "journal": metrics.get("journal"),
            "complete": metrics.get("complete"),
        }
    return campaigns


def build_manifest(results_dir) -> Dict[str, object]:
    """The full manifest document for one results directory."""
    entries = manifest_entries(results_dir)
    return {
        "schema": MANIFEST_SCHEMA,
        "entries": entries,
        "sources": sorted({entry["source"] for entry in entries}),
        "campaigns": campaigns_block(entries),
    }


def render_manifest_json(manifest: Dict[str, object]) -> str:
    """Canonical JSON text (sorted keys, trailing newline)."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_manifest(results_dir, output=None) -> Path:
    """Build and write the manifest; returns the written path.

    ``output`` defaults to ``<results_dir>/BENCH_manifest.json``.
    """
    results_dir = Path(results_dir)
    output = Path(output) if output is not None else results_dir / MANIFEST_NAME
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(render_manifest_json(build_manifest(results_dir)),
                      encoding="utf-8")
    return output


def load_manifest(path) -> Dict[str, object]:
    """Read a manifest document from disk."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def throughput_entries(manifest: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Backend-throughput entries keyed ``benchmark/backend``.

    The view the perf gate and the delta report compare on: only these
    entries carry a meaningful ``pages_per_second``.
    """
    out: Dict[str, Dict[str, object]] = {}
    for entry in manifest.get("entries", []):
        if entry.get("kind") == KIND_BACKEND_THROUGHPUT:
            out[f"{entry['benchmark']}/{entry['backend']}"] = entry
    return out
