"""Checkpointed campaign execution over the scenario sweep's cell pipeline.

:class:`CampaignRunner` dispatches a compiled campaign's pending cells
through any :class:`~repro.exec.backends.ExecutionBackend` with the
sweep's own :func:`~repro.eval.scenario_sweep.dispatch_cells` — one
``execute_sweep_cell`` task per cell — and commits every finished cell
to the journaled :class:`~repro.campaign.store.CampaignStore` before
moving on.  A SIGKILL therefore loses at most the in-flight checkpoint
batch; everything journalled is skipped on the next run, and the folded
``matrices.json`` — a pure function of the on-disk artifacts — comes out
byte-identical to an uninterrupted run.

Distributed dispatches publish one clean base store per (seed, domain)
with :func:`~repro.eval.scenario_sweep.publish_base_stores`, but only for
the cells still pending — a resumed campaign never pays publish cost for
finished work.  Published handles are recorded in the crash-safe registry
(:mod:`repro.campaign.registry`) *before* the first dispatch, so a
campaign killed between publish and release leaks nothing a resume (or
``campaign clean``) cannot reap.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import perf
from repro.campaign.registry import (
    clean_stale_stores,
    register_store_handles,
    release_registered,
)
from repro.campaign.spec import CampaignCell, CampaignSpec, compile_cells
from repro.campaign.store import CampaignStore, JournalReplay
from repro.eval.scenario_sweep import (
    assemble_sweep_result,
    dispatch_cells,
    publish_base_stores,
)
from repro.exec.backends import ExecutionBackend, resolve_backend

#: Identifier of the folded campaign-matrices layout.
MATRICES_SCHEMA = "CampaignMatrices/v1"

#: Identifier of the campaign summary artifact (`campaign run --bench-output`).
SUMMARY_SCHEMA = "BENCH_campaign/v1"

#: Test/CI hook: seconds to sleep after committing each cell, so an
#: external supervisor has a deterministic window to SIGKILL a campaign
#: "mid-flight, after >= 1 journalled cell".  Unset or 0 in production.
INTERCELL_SLEEP_ENV = "REPRO_CAMPAIGN_INTERCELL_SLEEP"


@dataclass
class CampaignRunReport:
    """What one ``run`` (or resume — same code path) accomplished."""

    total: int
    #: Cells the journal already held at start (skipped, not re-executed).
    skipped: int
    #: Cells this run executed and committed.
    executed: int
    #: Cells still pending when the run stopped (``max_cells`` budget).
    remaining: int
    #: Journal anomalies replay tolerated (torn/corrupt/missing-artifact).
    warnings: List[str] = field(default_factory=list)
    #: Duplicate journal entries replay collapsed idempotently.
    duplicates: int = 0
    #: Folded matrices path; ``None`` while cells remain pending.
    matrices_path: Optional[Path] = None

    @property
    def complete(self) -> bool:
        return self.remaining == 0


def fold_matrices(spec: CampaignSpec, store: CampaignStore,
                  cells: Optional[List[CampaignCell]] = None
                  ) -> Dict[str, object]:
    """Fold committed artifacts into per-seed robustness matrices.

    A pure function of the spec and the artifacts on disk: results are
    *always* read back from ``cells/<key>.json`` (JSON float round-trips
    are exact), never taken from memory, so an uninterrupted run and any
    sequence of killed-and-resumed runs produce the same bytes.  Each
    seed's block is exactly the matrix :class:`~repro.eval.scenario_sweep
    .ScenarioSweep` emits for that corpus realisation.
    """
    cells = cells if cells is not None else compile_cells(spec)
    scenario_specs = spec.scenario_specs()
    seeds: Dict[str, object] = {}
    for seed in spec.seeds:
        seed_cells = [cell for cell in cells if cell.seed == seed]
        results = [store.read_result(cell.key) for cell in seed_cells]
        matrix = assemble_sweep_result(
            scale_name=spec.scale.name,
            seed=seed,
            num_queries=spec.num_queries,
            methods=spec.methods,
            domains=spec.domains,
            specs=scenario_specs,
            cell_results=results,
        )
        seeds[str(seed)] = matrix.to_json_dict()
    return {"schema": MATRICES_SCHEMA, "campaign": spec.name, "seeds": seeds}


class CampaignRunner:
    """Dispatches a campaign's pending cells and folds finished artifacts.

    Parameters
    ----------
    root:
        Campaign directory (created on first run).
    spec:
        The campaign to bind the directory to.  ``None`` loads the spec
        the directory is already bound to (the resume path).
    backend / workers:
        Execution engine for cell dispatch, exactly as
        :class:`~repro.eval.scenario_sweep.ScenarioSweep` accepts them.
    checkpoint_every:
        Cells committed per dispatch round; the crash-loss bound.
        Defaults to the backend's worker count, so every worker stays
        busy within a round while a kill never loses more than one
        round's results.
    """

    def __init__(self, root, spec: Optional[CampaignSpec] = None,
                 backend: Union[None, str, ExecutionBackend] = None,
                 workers: int = 1,
                 checkpoint_every: Optional[int] = None) -> None:
        self.store = CampaignStore(root)
        if spec is not None:
            self.spec = self.store.initialise(spec)
        else:
            self.spec = self.store.load_spec()
        self.backend = resolve_backend(backend, workers=workers)
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every \
            if checkpoint_every is not None else max(1, self.backend.workers)

    # -- Introspection -----------------------------------------------------
    def plan(self) -> List[CampaignCell]:
        """The compiled, content-addressed job list (deterministic)."""
        return compile_cells(self.spec)

    def status(self) -> Tuple[List[CampaignCell], JournalReplay]:
        """Compiled cells plus what the journal says is already done."""
        return self.plan(), self.store.replay()

    # -- Execution ---------------------------------------------------------
    def run(self, max_cells: Optional[int] = None) -> CampaignRunReport:
        """Execute pending cells (resume-safe) and fold when complete.

        ``max_cells`` bounds how many pending cells this invocation
        executes (``None`` = all) — useful for smoke-testing checkpoint
        behaviour and for slicing a campaign across short-lived runners.
        """
        cells = self.plan()
        with perf.phase("campaign-replay"):
            replay = self.store.replay()
        # Reap segments a killed predecessor leaked before publishing new
        # ones — /dev/shm is a bounded resource.
        clean_stale_stores(self.store.root)
        pending = [cell for cell in cells if cell.key not in replay.completed]
        skipped = len(cells) - len(pending)
        budget = len(pending) if max_cells is None \
            else max(0, min(max_cells, len(pending)))
        to_run = pending[:budget]
        executed = 0
        sleep_seconds = float(os.environ.get(INTERCELL_SLEEP_ENV, "0") or 0)
        if to_run:
            with perf.phase("campaign-publish"):
                handles = publish_base_stores(
                    self.backend, [cell.spec for cell in to_run],
                    self.spec.corpus_store)
            register_store_handles(self.store.root, handles)
            try:
                for start in range(0, len(to_run), self.checkpoint_every):
                    batch = to_run[start:start + self.checkpoint_every]
                    with perf.phase("campaign-dispatch", cells=len(batch),
                                    workers=self.backend.workers):
                        results = dispatch_cells(
                            self.backend, [cell.spec for cell in batch],
                            handles)
                    for cell, result in zip(batch, results):
                        self.store.record(cell, result)
                        executed += 1
                        if sleep_seconds > 0:
                            time.sleep(sleep_seconds)
            finally:
                release_registered(self.store.root)
        report = CampaignRunReport(
            total=len(cells),
            skipped=skipped,
            executed=executed,
            remaining=len(pending) - executed,
            warnings=list(replay.warnings),
            duplicates=replay.duplicates,
        )
        if report.remaining == 0:
            with perf.phase("campaign-fold"):
                document = fold_matrices(self.spec, self.store, cells)
                report.matrices_path = self.store.write_matrices(document)
        return report

    # -- Reporting ---------------------------------------------------------
    def summary_document(self, report: CampaignRunReport
                         ) -> Dict[str, object]:
        """The ``BENCH_campaign`` summary artifact of a run.

        Carries the campaign's shape, its checkpoint/resume counters and
        the ``campaign-*`` phase timings, so a run's resume behaviour is
        on record next to its wall time.
        """
        rec = perf.recorder()
        phases = rec.aggregates_since(0) if rec is not None else {}
        campaign_phases = {name: stats for name, stats in phases.items()
                           if name.startswith("campaign-")}
        return {
            "schema": SUMMARY_SCHEMA,
            "campaign": self.spec.name,
            "scale": self.spec.scale.name,
            "backend": self.backend.name,
            "workers": self.backend.workers,
            "domains": list(self.spec.domains),
            "scenarios": list(self.spec.scenarios),
            "methods": list(self.spec.methods),
            "seeds": list(self.spec.seeds),
            "cells": {
                "total": report.total,
                "skipped_on_resume": report.skipped,
                "executed_this_run": report.executed,
                "remaining": report.remaining,
            },
            "journal": {
                "duplicates": report.duplicates,
                "warnings": len(report.warnings),
            },
            "complete": report.complete,
            "phases": campaign_phases,
        }
