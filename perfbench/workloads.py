"""The three closed-loop workloads of the benchmark.

Each workload runs in *passes*.  A pass is one complete unit of work, run
serially after the previous one completes, and returns a :class:`Pass`
with its set-up time, its wall time and its raw outputs.  ``inspect`` then
digests and checks those outputs, outside the timed region, and
``timings`` reads the pass's set-up and wall time, rescaled to reference
speed, from the timeline the tracer recorded.  Every pass of one seed does
the same work on the same inputs, so all passes of a run must produce one
digest.

Inputs come from the benchmark seed only: :func:`derived_seed` turns it into
the corpus seed (every workload) and the runner ``base_seed`` (where the
program's public API takes one).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, compile_cells
from repro.eval.experiments import DEFAULT_SCALE, DOMAINS, run_fig13
from repro.eval.metrics import compute_metrics
from repro.eval.runner import ExperimentRunner
from repro.exec.backends import make_backend
from repro.scenarios import scenario_names
from tracer import TRACER, Records

L2Q_METHODS = ("L2QP", "L2QR", "L2QBAL")
L2Q_BUDGET = 5
CAMPAIGN_METHODS = ("RND", "MQ", "LM")
CAMPAIGN_QUERIES = 3
#: ``auto`` would resolve to shared memory outside the working tree; the
#: mmap store keeps every byte the benchmark writes inside it.
CAMPAIGN_STORE = "mmap"
#: The serial workloads never publish a store (only distributed dispatches
#: do), and ``auto`` would still probe shared memory, which starts
#: multiprocessing's resource-tracker process.
SERIAL_STORE = "off"


def derived_seed(seed: int, label: str) -> int:
    """A stable 31-bit child seed of the benchmark seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).hexdigest()
    return int(digest[:8], 16) % (2 ** 31 - 1)


def digest_of(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Pass:
    """What one pass did.  ``outputs`` are inspected after the pass, with
    tracing off, and then dropped."""

    setup_s: float
    pass_s: float
    attempted: int
    failed: int
    outputs: object = None
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    #: The workload's quality figure (deterministic per seed).
    f_score: float = 0.0


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.scale = replace(DEFAULT_SCALE,
                             corpus_seed=derived_seed(seed, "corpus"))
        self.base_seed = derived_seed(seed, "base")

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def inspect(self, outputs) -> Tuple[str, float, List[str]]:
        """``(digest, f_score, errors)`` of one pass's outputs."""
        raise NotImplementedError

    def timings(self, records: Records) -> Tuple[float, float]:
        """``(setup_s, pass_s)`` of one pass at reference speed.

        Segments lapped as ``setup`` are the set-up; the rest is the pass.
        """
        setup = sum(scaled for label, _, scaled in records.segments
                    if label == "setup")
        rest = sum(scaled for label, _, scaled in records.segments
                   if label != "setup")
        return setup, rest


class L2QSessions(Workload):
    """Every L2Q selector × aspect × test entity session, serial."""

    name = "l2q-sessions"

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        worlds = []
        for domain in DOMAINS:
            corpus = self.scale.corpus_for(domain)
            runner = ExperimentRunner(corpus, base_seed=self.base_seed,
                                      corpus_store=SERIAL_STORE)
            split = runner.default_split(0)
            prepared = runner.prepare(split)
            aspects = self.scale.aspects_for(corpus)
            TRACER.lap("setup")
            for aspect in aspects:
                prepared.domain_model(aspect)
                TRACER.lap("setup")
            entities = list(split.test_entities)[:self.scale.max_test_entities]
            worlds.append((domain, corpus, runner, prepared, aspects, entities))
        setup_s = time.perf_counter() - start

        start = time.perf_counter()
        sessions = []
        errors: List[str] = []
        for domain, corpus, runner, prepared, aspects, entities in worlds:
            harvester = runner.harvester_for(prepared)
            for method in L2Q_METHODS:
                for aspect in aspects:
                    for entity_id in entities:
                        label = f"{domain}/{method}/{aspect}/{entity_id}"
                        try:
                            result = harvester.harvest_job(runner.build_job(
                                prepared, method, entity_id, aspect, L2Q_BUDGET))
                        except Exception as error:  # one failed session
                            errors.append(f"{label}: {error!r}")
                            result = None
                        sessions.append((label, corpus, entity_id, aspect,
                                         method, result))
        pass_s = time.perf_counter() - start
        return Pass(setup_s=setup_s, pass_s=pass_s, attempted=len(sessions),
                    failed=len(errors), outputs=sessions, errors=errors)

    def inspect(self, sessions) -> Tuple[str, float, List[str]]:
        chosen = []
        f_scores: List[float] = []
        errors: List[str] = []
        for label, corpus, entity_id, aspect, method, result in sessions:
            if result is None:
                continue
            queries = [list(q) for q in result.queries()]
            chosen.append([label, queries])
            errors += _check_session(label, corpus, entity_id, result, queries)
            relevant = [p.page_id for p in corpus.relevant_pages(entity_id, aspect)]
            if relevant and method == "L2QBAL":
                f_scores.append(compute_metrics(
                    result.gathered_after(L2Q_BUDGET), relevant).f_score)
        f_score = sum(f_scores) / len(f_scores) if f_scores else 0.0
        return digest_of(chosen), f_score, errors


def _check_session(label: str, corpus, entity_id: str, result,
                   queries: List[list]) -> List[str]:
    errors = []
    if not 1 <= len(queries) <= L2Q_BUDGET:
        errors.append(f"{label}: fired {len(queries)} queries")
    if len({tuple(q) for q in queries}) != len(queries):
        errors.append(f"{label}: fired a query twice")
    foreign = [page_id for page_id in result.gathered_after(None)
               if corpus.get_page(page_id).entity_id != entity_id]
    if foreign:
        errors.append(f"{label}: gathered pages of other entities {foreign[:3]}")
    return errors


class Fig13(Workload):
    """``run_fig13`` at the default scale: corpus to ComparisonResult.

    The figure builds its own corpora, classifiers, domain models and HR
    statistics, so its set-up is the part of the pass outside harvest
    sessions (which also holds the small metric fold), and its pass is the
    whole figure.
    """

    name = "fig13"

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        try:
            result = run_fig13(self.scale, corpus_store=SERIAL_STORE)
        except Exception as error:
            return Pass(setup_s=0.0, pass_s=time.perf_counter() - start,
                        attempted=1, failed=1, errors=[f"run_fig13: {error!r}"])
        return Pass(setup_s=0.0, pass_s=time.perf_counter() - start,
                    attempted=1, failed=0, outputs=result)

    def inspect(self, result) -> Tuple[str, float, List[str]]:
        document = result.to_json_dict()
        return (digest_of(document), result.mean_over_domains("L2QBAL", "f_score"),
                _check_figure(document))

    def timings(self, records: Records) -> Tuple[float, float]:
        setup = sum(scaled for label, _, scaled in records.segments
                    if label != "session")
        return setup, sum(scaled for _, _, scaled in records.segments)


def _check_figure(document: Dict[str, object]) -> List[str]:
    errors = []
    budgets = [str(k) for k in DEFAULT_SCALE.num_queries_list]
    series = document["series_by_domain"]
    if sorted(series) != sorted(DOMAINS):
        errors.append(f"fig13: domains {sorted(series)}")
    for domain, methods in series.items():
        if "L2QBAL" not in methods:
            errors.append(f"fig13: {domain} lacks L2QBAL")
        for method, metrics in methods.items():
            for name, values in metrics.items():
                if sorted(values) != sorted(budgets):
                    errors.append(f"fig13: {domain}/{method}/{name} budgets")
                if not all(math.isfinite(v) and v >= 0 for v in values.values()):
                    errors.append(f"fig13: {domain}/{method}/{name} {values}")
    return errors


class CampaignSweep(Workload):
    """Both domains × every built-in scenario as one campaign on processes."""

    name = "campaign-sweep"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.workers = len(os.sched_getaffinity(0))
        self.spec = CampaignSpec(
            name="perfbench", scale=self.scale, domains=tuple(DOMAINS),
            scenarios=tuple(scenario_names()), methods=CAMPAIGN_METHODS,
            seeds=(self.scale.corpus_seed,), num_queries=CAMPAIGN_QUERIES,
            corpus_store=CAMPAIGN_STORE)
        self.keys = [cell.key for cell in compile_cells(self.spec)]

    def run_pass(self) -> Pass:
        root = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.work_dir))
        backend = make_backend("process", workers=self.workers)
        dispatch = backend.map_tasks
        first_dispatch: List[float] = []

        def timed_dispatch(fn, items):
            if not first_dispatch:
                first_dispatch.append(time.perf_counter())
                TRACER.lap("setup")
            return dispatch(fn, items)

        backend.map_tasks = timed_dispatch
        start = time.perf_counter()
        try:
            report = CampaignRunner(root, self.spec, backend=backend).run()
        except Exception as error:
            backend.close()
            shutil.rmtree(root, ignore_errors=True)
            return Pass(setup_s=0.0, pass_s=time.perf_counter() - start,
                        attempted=len(self.keys), failed=len(self.keys),
                        errors=[f"campaign: {error!r}"])
        backend.close()
        pass_s = time.perf_counter() - start
        # Set-up is everything before the first dispatch: store binding,
        # journal replay, corpus generation, classifier training, publish.
        setup_s = (first_dispatch[0] if first_dispatch else start) - start
        return Pass(setup_s=setup_s, pass_s=pass_s, attempted=len(self.keys),
                    failed=len(self.keys) - report.executed,
                    outputs=(root, report))

    def timings(self, records: Records) -> Tuple[float, float]:
        """Set-up from the driver's own timeline; the pass is set-up plus
        dispatch.  The driver waits while the workers run, so the dispatch
        wall is rescaled by the workers' mean factor, weighted by time."""
        setup = dispatch = worker_wall = worker_scaled = 0.0
        for label, wall, scaled in records.segments:
            if label.startswith("worker."):
                worker_wall += wall
                worker_scaled += scaled
            elif label == "setup":
                setup += scaled
            else:
                dispatch += wall
        factor = worker_scaled / worker_wall if worker_wall else 1.0
        return setup, setup + dispatch * factor

    def inspect(self, outputs) -> Tuple[str, float, List[str]]:
        root, report = outputs
        try:
            errors = self._check(root, report)
            matrices = (root / "matrices.json").read_bytes()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return (hashlib.sha256(matrices).hexdigest(),
                _mean_campaign_f(json.loads(matrices)), errors)

    def _check(self, root: Path, report) -> List[str]:
        errors = []
        if not (report.complete and report.executed == len(self.keys)):
            errors.append(f"campaign: executed {report.executed} of "
                          f"{len(self.keys)}, remaining {report.remaining}")
        journal = [json.loads(line) for line in
                   (root / "journal.jsonl").read_text().splitlines() if line]
        keys = [entry["key"] for entry in journal if entry.get("event") == "cell"]
        if sorted(keys) != sorted(self.keys):
            errors.append("campaign: journal does not hold each cell key "
                          "exactly once")
        return errors


def _mean_campaign_f(matrices: Dict[str, object]) -> float:
    """Mean ideal-normalised F over every cell and method of the matrices."""
    values: List[float] = []
    for matrix in matrices["seeds"].values():
        for domain in matrix["domains"].values():
            cells = [domain["clean"]] + list(domain["scenarios"].values())
            for cell in cells:
                values += [m["f_score"] for m in cell["metrics"].values()]
    return sum(values) / len(values) if values else 0.0


WORKLOADS = {cls.name: cls for cls in (L2QSessions, Fig13, CampaignSweep)}


def make_workload(name: str, seed: int, work_dir: Path) -> Workload:
    return WORKLOADS[name](seed, work_dir)

