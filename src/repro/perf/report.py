"""Human-readable renderings of the perf manifest.

Backs ``repro.cli perf report``: a per-backend speedup table over the
manifest's throughput entries, and a delta table comparing a freshly built
manifest against the committed one (the same comparison the CI perf gate
makes, minus the exit code).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.perf.manifest import throughput_entries


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(str(cell)) for cell in column)
              for column in zip(*([headers] + rows))]
    lines = ["  ".join(str(cell).ljust(width)
                       for cell, width in zip(row, widths))
             for row in [headers, ["-" * w for w in widths]] + rows]
    return "\n".join(lines)


def _fmt(value: Optional[float], pattern: str = "{:.2f}") -> str:
    return pattern.format(value) if value is not None else "-"


def format_manifest(manifest: Dict[str, object]) -> str:
    """Per-backend speedup table plus an index of the other entries."""
    sections: List[str] = [f"Perf manifest ({manifest.get('schema')})"]

    backends = throughput_entries(manifest)
    if backends:
        rows = [[key,
                 str(entry.get("scale")),
                 _fmt(entry.get("wall_seconds"), "{:.3f}"),
                 _fmt(entry.get("pages_per_second"), "{:.1f}"),
                 _fmt(entry.get("speedup_vs_serial"), "{:.2f}x"),
                 str(entry.get("metrics", {}).get("workers", "-"))]
                for key, entry in sorted(backends.items())]
        sections.append(_format_table(
            ["Benchmark/backend", "Scale", "Wall s", "Pages/s", "Speedup",
             "Workers"], rows))

    others = [entry for entry in manifest.get("entries", [])
              if entry.get("kind") != "backend-throughput"]
    if others:
        rows = [[entry["source"], entry["kind"],
                 str(entry.get("scale")),
                 str(entry.get("method") or "-"),
                 _fmt(entry.get("wall_seconds"), "{:.4f}")]
                for entry in others]
        sections.append(_format_table(
            ["Source", "Kind", "Scale", "Method", "Wall s"], rows))

    return "\n\n".join(sections)


@dataclass(frozen=True)
class ThroughputDelta:
    """One backend's fresh-vs-committed pages/sec comparison.

    ``change`` is the relative change (positive = faster), or ``None``
    when either side has no usable throughput number.  ``collapsed`` marks
    the pathological case the perf gate must treat as a regression: the
    committed baseline had real throughput but the fresh run reports none
    (``None`` or ``0.0`` pages/sec — a backend that gathered nothing).
    """

    key: str
    committed: Optional[float]
    fresh: Optional[float]
    change: Optional[float]
    collapsed: bool


def throughput_deltas(fresh: Dict[str, object],
                      committed: Dict[str, object]
                      ) -> Tuple[List[ThroughputDelta], List[str], List[str]]:
    """Compare two manifests' throughput entries.

    Returns ``(deltas, new_keys, missing_keys)``: one delta per shared
    backend, plus the backends only the fresh / only the committed
    manifest knows.  The single comparison both the CLI report and the CI
    gate consume, so their semantics cannot diverge.
    """
    fresh_entries = throughput_entries(fresh)
    committed_entries = throughput_entries(committed)
    deltas = []
    for key in sorted(set(fresh_entries) & set(committed_entries)):
        before = committed_entries[key].get("pages_per_second")
        now = fresh_entries[key].get("pages_per_second")
        if before and now:
            deltas.append(ThroughputDelta(key=key, committed=before, fresh=now,
                                          change=(now - before) / before,
                                          collapsed=False))
        else:
            deltas.append(ThroughputDelta(key=key, committed=before, fresh=now,
                                          change=None,
                                          collapsed=bool(before) and not now))
    new_keys = sorted(set(fresh_entries) - set(committed_entries))
    missing_keys = sorted(set(committed_entries) - set(fresh_entries))
    return deltas, new_keys, missing_keys


def format_manifest_delta(fresh: Dict[str, object],
                          committed: Dict[str, object]) -> str:
    """Throughput deltas of a fresh manifest vs the committed baseline.

    Positive change = faster than the committed trajectory.  Entries only
    one side knows are listed, not compared.
    """
    deltas, new_keys, missing_keys = throughput_deltas(fresh, committed)
    rows = [[d.key, _fmt(d.committed, "{:.1f}"), _fmt(d.fresh, "{:.1f}"),
             f"{d.change:+.1%}" if d.change is not None else "-"]
            for d in deltas]
    lines = []
    if rows:
        lines.append(_format_table(
            ["Benchmark/backend", "Committed pages/s", "Fresh pages/s",
             "Change"], rows))
    else:
        lines.append("no throughput entries shared with the baseline")
    for key in new_keys:
        lines.append(f"note: {key} is new (no committed baseline)")
    for key in missing_keys:
        lines.append(f"note: {key} disappeared from the fresh manifest")
    return "\n".join(lines)
