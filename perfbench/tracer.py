"""In-memory span tracer that wraps each layer's coarse entry points by name.

The benchmark never edits the program: :func:`install` looks up every entry
point in :data:`TARGETS` by module and attribute name and replaces it with a
wrapper, both on its owner and wherever a ``repro`` module imported the same
object by name.  An entry point that no longer exists is recorded in
:attr:`Tracer.absent` and its layer reads 0, so a later change that deletes
one does not crash the run.

A span covers one call of a wrapped entry point.  Per layer the tracer keeps
the call count, the wall time of the outermost call (a layer re-entered
inside itself is not counted twice), the self wall time (wall minus the
spans opened inside it) and the self ``process_time``.  Counts the layers
cannot afford to wrap (graph sizes, solver iterations) are read from the
objects the wrapped calls return.

Three wrappers stay on even with tracing off, because the end-to-end
metrics need them: the harvest-session tap (per-selection latency and the
timeline laps below), the sweep-cell wrapper that ships worker-side
records home with each result, and the dispatch wrapper that unpacks them.
Install before the first process pool forks, so the forked workers
inherit the wrappers.

Every process also keeps a *timeline*: :meth:`Tracer.lap` closes the
segment since the previous lap and times a small reference kernel
(:func:`reference_seconds`, about 0.35 ms at full speed) at its end.  The
segment's wall is rescaled by the reference time measured around it, so
the end-to-end times report the work at one reference speed instead of at
whatever speed a shared host gave the run at that moment (see README,
Estimators).  Laps are taken at each harvest session's start and end, at
each sweep cell's start and end, and at the workloads' set-up boundaries.

The tracer is single-threaded by design: the benchmark drives serial
harvesting in its own process, and process-pool workers each hold their own
forked copy.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Every timed layer, as reported.  The primary metric of a layer is its
#: self time; ``<layer>_wall_s`` and ``<layer>_cpu_s`` (self process_time)
#: are reported beside it.
TIMED_LAYERS = (
    "corpus.build_s", "aspects.train_s", "domain_phase.learn_s",
    "eval.prepare_s",
    "entity_phase.enumerate_s", "utility.assemble_s",
    "random_walk.solver_build_s", "random_walk.solve_s",
    "context.evaluate_s",
    "selection.L2QP.select_s", "selection.L2QR.select_s",
    "selection.L2QBAL.select_s",
    "baselines.HR.select_s", "baselines.AQ.select_s", "baselines.LM.select_s",
    "baselines.MQ.select_s", "baselines.RND.select_s",
    "baselines.IDEAL.select_s",
    "search.fetch_s", "session.ingest_s", "aspects.assess_s",
    "dedup.waste_s", "eval.fold_s",
    "exec.dispatch_s", "exec.worker_busy_s", "store.publish_s",
    "store.attach_s", "scenarios.realise_s", "campaign.journal_s",
    "campaign.replay_s", "campaign.fold_s",
)

#: Layers whose primary metric is wall time, not self time: a worker's busy
#: time is the whole cell, whatever ran inside it.
WALL_PRIMARY = frozenset({"exec.worker_busy_s"})

#: ``selection.attributed_ratio`` is the share of these selectors' wall
#: time spent in the spans opened inside them (enumerate, assemble, solver
#: build, solve, context evaluate).
L2Q_SELECTORS = ("selection.L2QP.select_s", "selection.L2QR.select_s",
                 "selection.L2QBAL.select_s")

#: Counts and ratios reported beside the timed layers: name -> (unit, better).
COUNT_METRICS = {
    "entity_phase.candidates": ("count", "lower"),
    "utility.graph_queries": ("count", "lower"),
    "utility.graph_templates": ("count", "lower"),
    "utility.graph_edges": ("count", "lower"),
    "random_walk.iterations_mean": ("count", "lower"),
    "random_walk.unconverged_ratio": ("ratio", "lower"),
    "search.requests": ("count", "lower"),
    "search.cache_hit_ratio": ("ratio", "higher"),
    "aspects.assess_calls": ("count", "lower"),
    "exec.wait_ratio": ("ratio", "lower"),
    "store.rebuilds": ("count", "lower"),
    "campaign.journal_bytes": ("bytes", "lower"),
    "selection.attributed_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

#: Counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = ("random_walk.unconverged_ratio", "random_walk.iterations_mean",
                "utility.graph_queries", "utility.graph_templates",
                "utility.graph_edges", "entity_phase.candidates",
                "search.requests", "search.cache_hit_ratio",
                "aspects.assess_calls", "store.rebuilds")


#: The reference kernel's time at the build machine's full speed (2-core
#: Intel Xeon VM at 2.1 GHz, Python 3.11); rescaled segments are expressed
#: in seconds at this speed.
REFERENCE_NOMINAL_S = 0.00035

_REFERENCE_WORDS = tuple(f"w{i}" for i in range(700))
_REFERENCE_ARRAY = np.arange(4000, dtype=float)


def reference_seconds() -> float:
    """Wall time of one fixed kernel: dict updates, a sort, small numpy ops.

    Its mix resembles the program's (interpreted dict and list work plus
    short numpy calls), so a host that momentarily runs the program slower
    runs this slower by about the same factor.
    """
    start = time.perf_counter()
    counts: Dict[str, int] = {}
    for round_ in range(3):
        for i, word in enumerate(_REFERENCE_WORDS):
            counts[word] = counts.get(word, 0) + i * round_
        sorted(counts.values())
        for _ in range(10):
            (_REFERENCE_ARRAY * 1.0001).sum()
    return time.perf_counter() - start


def layer_metric_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names: List[str] = []
    for layer in TIMED_LAYERS:
        base = layer[:-2]
        names += [layer, base + "_wall_s", base + "_cpu_s"]
    return names + list(COUNT_METRICS)


@dataclass
class Records:
    """What one process recorded: span aggregates, counters and taps."""

    #: layer -> [calls, wall, self wall, self cpu]
    layers: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    #: ``(wall, rescaled wall, [selection seconds])`` of every harvest
    #: session, in order.
    sessions: List[Tuple[float, float, List[float]]] = field(default_factory=list)
    #: ``(label, wall, rescaled wall)`` of every timeline segment, in order;
    #: labels of segments recorded in a worker start with ``worker.``.
    segments: List[Tuple[str, float, float]] = field(default_factory=list)

    def merge(self, other: "Records") -> None:
        for layer, values in other.layers.items():
            mine = self.layers.setdefault(layer, [0, 0.0, 0.0, 0.0])
            for i, value in enumerate(values):
                mine[i] += value
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.sessions.extend(other.sessions)
        self.segments.extend(other.segments)


@dataclass
class Shipped:
    """A worker's result travelling home with the records made producing it."""

    result: object
    records: Records


class Tracer:
    """Span stack plus the records of the current pass."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.records = Records()
        self.absent: List[str] = []
        self._stack: List[List[float]] = []
        self._active: Dict[str, bool] = {}
        self._engines: list = []
        self._build_has_handle = False
        self._build_generated = False
        self._lap_reference: Optional[float] = None
        self._lap_start = 0.0

    # -- Spans -------------------------------------------------------------
    def span(self, layer: str, fn: Callable, args, kwargs):
        if self._active.get(layer):
            return fn(*args, **kwargs)
        frame = [0.0, 0.0]  # wall and cpu of the spans opened inside
        self._active[layer] = True
        self._stack.append(frame)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            self._stack.pop()
            self._active[layer] = False
            if self._stack:
                self._stack[-1][0] += wall
                self._stack[-1][1] += cpu
            stats = self.records.layers.setdefault(layer, [0, 0.0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += wall
            stats[2] += wall - frame[0]
            stats[3] += cpu - frame[1]

    def count(self, name: str, value: float = 1) -> None:
        self.records.counters[name] = self.records.counters.get(name, 0) + value

    # -- Timeline ----------------------------------------------------------
    def restart(self) -> None:
        """Begin a timeline: time the reference kernel, start the clock."""
        self._lap_reference = reference_seconds()
        self._lap_start = time.perf_counter()

    def lap(self, label: str) -> Tuple[float, float]:
        """Record the segment since the last lap; ``(wall, rescaled wall)``.

        The reference kernel runs outside both segments it separates, and
        the segment is rescaled by the mean of the references around it.
        """
        wall = time.perf_counter() - self._lap_start
        reference = reference_seconds()
        before = self._lap_reference or reference
        scaled = wall * 2.0 * REFERENCE_NOMINAL_S / (before + reference)
        self.records.segments.append((label, wall, scaled))
        self._lap_reference = reference
        self._lap_start = time.perf_counter()
        return wall, scaled

    # -- Pass boundaries ---------------------------------------------------
    def take(self) -> Records:
        """Fold live engine statistics in, then hand over and reset."""
        self._collect_engines()
        records, self.records = self.records, Records()
        return records

    def _collect_engines(self) -> None:
        for engine in self._engines:
            stats = engine.fetch_statistics
            self.count("search.lookups", stats.cache_hits + stats.cache_misses)
            self.count("search.hits", stats.cache_hits)
        self._engines = []

    # -- Worker side -------------------------------------------------------
    def in_worker(self) -> bool:
        return os.getpid() != self.pid

    def run_worker_cell(self, fn: Callable, args, kwargs) -> Shipped:
        """Run one cell in a forked worker and ship its records home.

        The fork copied the parent's records and open spans; both are set
        aside so only this cell's records travel.
        """
        saved = (self.records, self._stack, self._active, self._engines)
        self.records, self._stack, self._active, self._engines = \
            Records(), [], {}, []
        try:
            self.restart()
            if self.enabled:
                result = self.span("exec.worker_busy_s", fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            self.lap("cell")
            # The cell may have started a resource tracker (the program
            # probes shared memory); stop it while this worker can still
            # wait for it, or it outlives the worker as an orphan.
            stop_resource_tracker()
            records = self.take()
            records.segments = [("worker." + label, wall, scaled)
                                for label, wall, scaled in records.segments]
            return Shipped(result=result, records=records)
        finally:
            self.records, self._stack, self._active, self._engines = saved


TRACER = Tracer()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if this process started one,
    and wait until it has ended."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is None:
        return
    try:
        tracker._stop()
    except ChildProcessError:  # inherited across a fork: not ours to wait for
        pass


# -- Taps: counts read from returned objects --------------------------------
def _before_session(tracer: Tracer, args, kwargs) -> None:
    tracer.lap("gap")


def _tap_session(tracer: Tracer, args, result, _token) -> None:
    wall, scaled = tracer.lap("session")
    tracer.records.sessions.append(
        (wall, scaled, [record.selection_seconds for record in result.iterations]))


def _tap_candidates(tracer: Tracer, args, result, _token) -> None:
    tracer.count("entity_phase.candidates", len(result))


def _tap_graph(tracer: Tracer, args, result, _token) -> None:
    graph = result.graph
    tracer.count("utility.graph_queries", len(result.queries))
    tracer.count("utility.graph_templates", len(result.templates))
    tracer.count("utility.graph_edges",
                 graph.page_query.nnz + graph.query_template.nnz)


def _tap_utilities(tracer: Tracer, args, result, _token) -> None:
    for vector in (result.precision, result.recall, result.recall_current,
                   result.recall_all, result.recall_current_all):
        tracer.count("random_walk.vectors")
        tracer.count("random_walk.iterations", vector.iterations)
        if not vector.converged:
            tracer.count("random_walk.unconverged")


def _tap_assess(tracer: Tracer, args, result, _token) -> None:
    tracer.count("aspects.assess_calls")


def _tap_engine(tracer: Tracer, args, result, _token) -> None:
    tracer._engines.append(args[0])


def _before_corpus_spec_build(tracer: Tracer, args, kwargs):
    saved = (tracer._build_has_handle, tracer._build_generated)
    tracer._build_has_handle = getattr(args[0], "store_handle", None) is not None
    tracer._build_generated = False
    return saved


def _after_corpus_spec_build(tracer: Tracer, args, result, saved) -> None:
    if tracer._build_has_handle and tracer._build_generated:
        tracer.count("store.rebuilds")
    tracer._build_has_handle, tracer._build_generated = saved


def _tap_generated(tracer: Tracer, args, result, _token) -> None:
    tracer._build_generated = True


def _before_journal(tracer: Tracer, args, kwargs):
    path = args[0].journal_path
    return path.stat().st_size if path.exists() else 0


def _after_journal(tracer: Tracer, args, result, size_before) -> None:
    grown = args[0].journal_path.stat().st_size - size_before
    tracer.count("campaign.journal_bytes", grown + result.stat().st_size)


def _before_dispatch(tracer: Tracer, args, kwargs):
    return time.perf_counter()


def _after_dispatch_slots(tracer: Tracer, args, result, start) -> None:
    workers = getattr(args[0], "workers", 1)
    tracer.count("exec.worker_slot_s", (time.perf_counter() - start) * workers)


# -- Targets ------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One entry point: ``module:Owner.attr`` (or ``module:function``)."""

    path: str
    #: Layer name, or a function of the call's arguments giving it.
    layer: object = None
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    #: Also active with tracing off (end-to-end taps only).
    always: bool = False


def _selector_layer(prefix: str) -> Callable:
    return lambda args: f"{prefix}.{args[0].name}.select_s"


TARGETS: Tuple[Target, ...] = (
    # Set-up.
    Target("repro.eval.experiments:ExperimentScale.corpus_for", "corpus.build_s"),
    Target("repro.corpus.synthetic:build_corpus", "corpus.build_s"),
    Target("repro.corpus.synthetic:build_base", "corpus.build_s",
           after=_tap_generated),
    Target("repro.exec.specs:CorpusSpec.build_base", "corpus.build_s"),
    Target("repro.exec.specs:CorpusSpec.build",
           before=_before_corpus_spec_build, after=_after_corpus_spec_build),
    Target("repro.aspects.classifier:AspectClassifierSuite.train_on_corpus",
           "aspects.train_s"),
    Target("repro.core.domain_phase:DomainPhase.learn", "domain_phase.learn_s"),
    Target("repro.eval.runner:ExperimentRunner.prepare", "eval.prepare_s"),
    # Selection.
    Target("repro.core.entity_phase:EntityPhase.enumerate_candidates",
           "entity_phase.enumerate_s", after=_tap_candidates),
    Target("repro.core.entity_phase:EntityPhase.compute", after=_tap_utilities),
    Target("repro.core.utility:GraphAssembler.assemble", "utility.assemble_s",
           after=_tap_graph),
    Target("repro.core.utility:AssembledGraph.solver",
           "random_walk.solver_build_s"),
    Target("repro.graph.random_walk:UtilitySolver.solve", "random_walk.solve_s"),
    Target("repro.graph.random_walk:UtilitySolver.solve_many",
           "random_walk.solve_s"),
    Target("repro.graph.random_walk:UtilitySolver.solve_joint",
           "random_walk.solve_s"),
    Target("repro.core.context:ContextTracker.evaluate_many",
           "context.evaluate_s"),
    Target("repro.core.selection:ContextAwareSelection.select",
           _selector_layer("selection")),
    # Baselines.
    Target("repro.core.selection:RandomSelection.select",
           _selector_layer("baselines")),
    Target("repro.baselines.harvest_rate:HarvestRateSelection.select",
           _selector_layer("baselines")),
    Target("repro.baselines.adaptive_querying:AdaptiveQueryingSelection.select",
           _selector_layer("baselines")),
    Target("repro.baselines.lm_feedback:LanguageModelFeedbackSelection.select",
           _selector_layer("baselines")),
    Target("repro.baselines.manual:ManualQuerySelection.select",
           _selector_layer("baselines")),
    Target("repro.baselines.oracle:IdealSelection.select",
           _selector_layer("baselines")),
    # Retrieval and ingest.
    Target("repro.search.clients:SearchClient.fetch", "search.fetch_s"),
    Target("repro.search.engine:SearchEngine.__init__", after=_tap_engine),
    Target("repro.core.session:HarvestSession.add_pages", "session.ingest_s"),
    Target("repro.aspects.classifier:AspectClassifierSuite.page_assessment",
           "aspects.assess_s", after=_tap_assess),
    Target("repro.dedup.waste:DuplicateWasteScorer.waste_by_budget",
           "dedup.waste_s"),
    Target("repro.eval.metrics:compute_metrics", "eval.fold_s"),
    Target("repro.core.harvester:Harvester.harvest_job",
           before=_before_session, after=_tap_session, always=True),
    # Distribution and durability.
    Target("repro.eval.scenario_sweep:publish_domain_store", "store.publish_s"),
    Target("repro.store.corpus_store:attach", "store.attach_s"),
    Target("repro.store.corpus_store:StoreAttachment.corpus", "store.attach_s"),
    Target("repro.store.corpus_store:StoreAttachment.base_corpus",
           "store.attach_s"),
    Target("repro.store.corpus_store:StoreAttachment.classifier_suite",
           "store.attach_s"),
    Target("repro.scenarios.registry:ScenarioSpec.corpus_from_base",
           "scenarios.realise_s"),
    Target("repro.campaign.store:CampaignStore.record", "campaign.journal_s",
           before=_before_journal, after=_after_journal),
    Target("repro.campaign.store:CampaignStore.replay", "campaign.replay_s"),
    Target("repro.campaign.runner:fold_matrices", "campaign.fold_s"),
)

#: Dispatch entry points: unpack shipped worker records (always on).
DISPATCH_TARGETS = ("repro.exec.backends:ExecutionBackend.map_tasks",
                    "repro.exec.backends:ProcessBackend.map_tasks")
#: Worker entry point whose records ship home (always on).
CELL_TARGET = "repro.eval.scenario_sweep:execute_sweep_cell"


def _wrap(fn: Callable, target: Target) -> Callable:
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not (tracer.enabled or target.always):
            return fn(*args, **kwargs)
        layer = target.layer(args) if callable(target.layer) else target.layer
        token = target.before(tracer, args, kwargs) if target.before else None
        if layer and tracer.enabled:
            result = tracer.span(layer, fn, args, kwargs)
        else:
            result = fn(*args, **kwargs)
        if target.after is not None:
            target.after(tracer, args, result, token)
        return result

    return wrapper


def _wrap_dispatch(fn: Callable) -> Callable:
    tracer = TRACER
    target = Target("", "exec.dispatch_s", before=_before_dispatch,
                    after=_after_dispatch_slots)
    timed = _wrap(fn, target)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        results = timed(*args, **kwargs)
        unpacked = []
        for item in results:
            if isinstance(item, Shipped):
                tracer.records.merge(item.records)
                item = item.result
            unpacked.append(item)
        return unpacked

    return wrapper


def _wrap_cell(fn: Callable) -> Callable:
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.in_worker():
            return tracer.run_worker_cell(fn, args, kwargs)
        if tracer.enabled:
            return tracer.span("exec.worker_busy_s", fn, args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _resolve(path: str):
    """``(owner, attr, raw)`` for a target path, or ``None`` if absent."""
    module_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = dotted.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        return None
    raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def _replace(path: str, make: Callable[[Callable], Callable]) -> bool:
    """Wrap one entry point wherever it is bound; False if it is absent."""
    found = _resolve(path)
    if found is None:
        return False
    owner, attr, raw = found
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(make(raw.__func__)))
        return True
    wrapped = make(raw)
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        # Modules that imported the function by name hold their own binding.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)
    return True


def _layers_of(target: Target) -> List[str]:
    if isinstance(target.layer, str):
        return [target.layer]
    return [target.path]


_INSTALLED = False


def install() -> Tracer:
    """Wrap every target once (idempotent) and return the tracer."""
    global _INSTALLED
    if _INSTALLED:
        return TRACER
    _INSTALLED = True
    for target in TARGETS:
        if not _replace(target.path,
                        functools.partial(_wrap, target=target)):
            TRACER.absent.extend(_layers_of(target))
    for path in DISPATCH_TARGETS:
        if not _replace(path, _wrap_dispatch):
            TRACER.absent.append("exec.dispatch_s")
    if not _replace(CELL_TARGET, _wrap_cell):
        TRACER.absent.append("exec.worker_busy_s")
    return TRACER


def layer_metrics(records: Records) -> Dict[str, float]:
    """Per-layer metrics of one pass (every name in :func:`layer_metric_names`)."""
    out: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        _, wall, self_wall, self_cpu = records.layers.get(layer, [0, 0.0, 0.0, 0.0])
        base = layer[:-2]
        out[layer] = wall if layer in WALL_PRIMARY else self_wall
        out[base + "_wall_s"] = wall
        out[base + "_cpu_s"] = self_cpu
    counters = records.counters
    vectors = counters.get("random_walk.vectors", 0)
    lookups = counters.get("search.lookups", 0)
    slots = counters.get("exec.worker_slot_s", 0.0)
    busy = records.layers.get("exec.worker_busy_s", [0, 0.0])[1]
    select_wall = sum(records.layers.get(name, [0, 0.0])[1]
                      for name in L2Q_SELECTORS)
    select_self = sum(records.layers.get(name, [0, 0.0, 0.0])[2]
                      for name in L2Q_SELECTORS)
    out.update({
        "entity_phase.candidates": counters.get("entity_phase.candidates", 0),
        "utility.graph_queries": counters.get("utility.graph_queries", 0),
        "utility.graph_templates": counters.get("utility.graph_templates", 0),
        "utility.graph_edges": counters.get("utility.graph_edges", 0),
        "random_walk.iterations_mean":
            counters.get("random_walk.iterations", 0) / vectors if vectors else 0.0,
        "random_walk.unconverged_ratio":
            counters.get("random_walk.unconverged", 0) / vectors if vectors else 0.0,
        "search.requests": lookups,
        "search.cache_hit_ratio":
            counters.get("search.hits", 0) / lookups if lookups else 0.0,
        "aspects.assess_calls": counters.get("aspects.assess_calls", 0),
        "exec.wait_ratio": 1.0 - busy / slots if slots else 0.0,
        "store.rebuilds": counters.get("store.rebuilds", 0),
        "campaign.journal_bytes": counters.get("campaign.journal_bytes", 0),
        "selection.attributed_ratio":
            1.0 - select_self / select_wall if select_wall else 0.0,
    })
    return out
