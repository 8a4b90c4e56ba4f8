"""Robustness sweep: selectors × scenarios → F-score deltas vs clean.

The paper's comparisons run on clean synthetic corpora only.
:class:`ScenarioSweep` re-runs the evaluation protocol under every requested
scenario (see :mod:`repro.scenarios`) and reports, per domain and per
method, how far the ideal-normalised precision / recall / F-score move from
the clean baseline — alongside the *absolute* (un-normalised) F-scores, so
a scenario that "improves" only because the IDEAL denominator degrades is
visible.  Since schema v3 every cell also carries the per-method
``duplicate_waste`` metric (near-duplicate fetch waste, see
:mod:`repro.dedup.waste`) and a merged ``fetch`` accounting block, and a
sweep can vary *learner* parameters per cell (``config_by_scenario`` /
:func:`expand_config_grid`, e.g. a ``dedup_penalty`` grid).  The output is
a machine-readable *robustness matrix* (``BENCH_scenarios.json``) that
successive PRs can diff.

Corpus generation is shared: each domain's *base* corpus is generated once
and every scenario's perturbation pipeline is realised against it
(byte-identical to per-scenario generation, because perturbation RNGs are
label-derived — see :class:`~repro.corpus.synthetic.BaseCorpus`).  A sweep
therefore performs exactly one base generation per domain instead of
``1 + len(scenarios)``.

Execution is pluggable: the sweep accepts any
:class:`~repro.exec.backends.ExecutionBackend`.  Serial and thread backends
evaluate cells in-process (threads parallelise the harvesting runs inside a
cell); the sharded process backend ships picklable
:class:`~repro.exec.specs.SweepCellSpec` payloads, one per (domain,
scenario) cell, and workers rebuild corpora against a process-local shared
base.  Every backend produces the same JSON byte-for-byte.

Everything in the result is deterministic: corpora are seeded, harvest
seeds derive from ``(base_seed, split, method, entity, aspect)``, and no
wall-clock values are recorded — so the same seed reproduces the JSON
byte-for-byte (the acceptance bar for the scenario subsystem).  Each
corpus's :meth:`~repro.corpus.corpus.Corpus.content_digest` is embedded so
a drifting corpus generator is distinguishable from a drifting selector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import perf
from repro.aspects.classifier import AspectClassifierSuite
from repro.core.config import L2QConfig
from repro.core.selection import selector_names
from repro.corpus.corpus import Corpus
from repro.corpus.synthetic import CorpusConfig, CorpusGenerator, realise_base
from repro.eval.experiments import DOMAINS, SMOKE_SCALE, ExperimentScale
from repro.eval.runner import BASELINE_METHODS, ExperimentRunner
from repro.eval.splits import split_entities
from repro.exec.backends import ExecutionBackend, resolve_backend
from repro.exec.specs import SweepCellResult, SweepCellSpec, reserve_base_slots
from repro.scenarios import ScenarioSpec, make_scenario, scenario_names
from repro.store import MODE_OFF, CorpusStoreWriter, StoreError, StoreHandle
from repro.store import release
from repro.store import resolve_mode as resolve_store_mode
from repro.utils.rng import derive_seed

#: Selectors swept by default: the paper's three full approaches.
DEFAULT_SWEEP_METHODS = ("L2QP", "L2QR", "L2QBAL")

#: Identifier of the serialisation layout (bump on breaking changes).
#: v2 adds absolute (un-normalised) metrics alongside the normalised ones.
#: v3 adds per-method ``duplicate_waste``, per-cell merged ``fetch``
#: accounting, and per-scenario L2Q config overrides (dedup-penalty grids).
SCHEMA = "BENCH_scenarios/v3"

#: Base seed of the evaluation runners inside sweep cells (the
#: :class:`ExperimentRunner` default, pinned so spec payloads are explicit).
RUNNER_BASE_SEED = 99


@dataclass
class ScenarioCell:
    """One (domain, scenario) cell of the robustness matrix."""

    scenario: str
    description: str
    corpus_digest: str
    metrics: Dict[str, Dict[str, float]]
    f_delta: Dict[str, float]
    absolute_metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    absolute_f_delta: Dict[str, float] = field(default_factory=dict)
    #: Per-method mean fraction of fetched pages that were duplicate or
    #: near-duplicate re-fetches (lower is better; see repro.dedup.waste).
    duplicate_waste: Dict[str, float] = field(default_factory=dict)
    #: Merged fetch accounting of every harvest run in this cell
    #: (queries_fired / pages_fetched / cache_hits / cache_misses) —
    #: identical across execution backends by construction.
    fetch: Dict[str, object] = field(default_factory=dict)


@dataclass
class ScenarioSweepResult:
    """The full robustness matrix plus everything needed to reproduce it."""

    scale: str
    seed: int
    num_queries: int
    methods: List[str]
    scenarios: List[str]
    clean_by_domain: Dict[str, Dict[str, object]] = field(default_factory=dict)
    cells_by_domain: Dict[str, Dict[str, ScenarioCell]] = field(default_factory=dict)
    param_grid: Optional[Dict[str, object]] = None

    def f_delta(self, domain: str, scenario: str, method: str) -> float:
        """F-score delta (scenario − clean) of one method in one domain."""
        return self.cells_by_domain[domain][scenario].f_delta[method]

    def mean_f_delta(self, scenario: str) -> float:
        """Mean F-score delta of a scenario over all domains and methods."""
        deltas = [cells[scenario].f_delta[method]
                  for cells in self.cells_by_domain.values()
                  for method in self.methods]
        return sum(deltas) / len(deltas) if deltas else 0.0

    def mean_absolute_f_delta(self, scenario: str) -> float:
        """Mean *absolute* F-score delta over all domains and methods.

        The un-normalised companion of :meth:`mean_f_delta`: immune to the
        IDEAL denominator moving under a scenario.
        """
        deltas = [cells[scenario].absolute_f_delta[method]
                  for cells in self.cells_by_domain.values()
                  for method in self.methods]
        return sum(deltas) / len(deltas) if deltas else 0.0

    def mean_duplicate_waste(self, scenario: str) -> float:
        """Mean duplicate-fetch waste of a scenario over domains and methods."""
        values = [cells[scenario].duplicate_waste[method]
                  for cells in self.cells_by_domain.values()
                  for method in self.methods]
        return sum(values) / len(values) if values else 0.0

    def to_json_dict(self) -> Dict[str, object]:
        """A plain-JSON rendering of the matrix (deterministic content)."""
        domains: Dict[str, object] = {}
        for domain in sorted(self.cells_by_domain):
            cells = self.cells_by_domain[domain]
            domains[domain] = {
                "clean": self.clean_by_domain[domain],
                "scenarios": {
                    name: {
                        "description": cell.description,
                        "corpus_digest": cell.corpus_digest,
                        "metrics": cell.metrics,
                        "absolute_metrics": cell.absolute_metrics,
                        "f_delta": cell.f_delta,
                        "absolute_f_delta": cell.absolute_f_delta,
                        "duplicate_waste": cell.duplicate_waste,
                        "fetch": cell.fetch,
                    }
                    for name, cell in sorted(cells.items())
                },
            }
        report: Dict[str, object] = {
            "schema": SCHEMA,
            "scale": self.scale,
            "seed": self.seed,
            "num_queries": self.num_queries,
            "methods": list(self.methods),
            "scenarios": list(self.scenarios),
            "domains": domains,
            "summary": {
                name: {
                    "mean_f_delta": self.mean_f_delta(name),
                    "mean_absolute_f_delta": self.mean_absolute_f_delta(name),
                    "mean_duplicate_waste": self.mean_duplicate_waste(name),
                }
                for name in self.scenarios
            },
        }
        if self.param_grid is not None:
            report["param_grid"] = dict(self.param_grid)
        return report

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> Path:
        """Write ``BENCH_scenarios.json`` (or any path) and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def expand_severity_grid(scenarios: Sequence[str], param: str,
                         values: Sequence[object]
                         ) -> Tuple[List[ScenarioSpec], Dict[str, object]]:
    """Expand scenarios × parameter values into a severity grid.

    Each named scenario factory is instantiated once per value with
    ``param=value`` and renamed ``"{name}@{param}={value}"``, so one sweep
    produces a degradation *curve* per selector instead of a single point.
    Returns the expanded specs plus the grid metadata embedded in the
    result JSON.
    """
    if not values:
        raise ValueError("severity grid needs at least one value")
    specs: List[ScenarioSpec] = []
    for name in scenarios:
        for value in values:
            try:
                spec = make_scenario(name, **{param: value})
            except TypeError as error:
                # A rejected keyword means the factory lacks the parameter;
                # any other TypeError comes from inside the factory (e.g. a
                # perturbation comparing a string severity) and is a bad
                # *value*, not a bad parameter name.
                if "unexpected keyword argument" in str(error):
                    raise ValueError(
                        f"scenario {name!r} does not accept parameter "
                        f"{param!r}: {error}") from None
                raise ValueError(
                    f"invalid value {value!r} for parameter {param!r} of "
                    f"scenario {name!r}: {error}") from None
            except ValueError as error:
                raise ValueError(
                    f"invalid value {value!r} for parameter {param!r} of "
                    f"scenario {name!r}: {error}") from None
            specs.append(replace(spec, name=f"{name}@{param}={value}"))
    grid = {"param": param, "values": list(values), "scenarios": list(scenarios)}
    return specs, grid


#: L2QConfig fields the sweep's evaluation path never reads: the budget
#: comes from ``ScenarioSweep.num_queries`` and every harvest seed derives
#: from the runner's ``base_seed`` (job specs), so grids over these would
#: produce byte-identical cells.
_SWEEP_IGNORED_CONFIG_FIELDS = {
    "num_queries": "the budget comes from --queries / ScenarioSweep.num_queries",
    "random_seed": "harvest seeds derive from the runner's base_seed",
}


def expand_config_grid(scenarios: Sequence[str], param: str,
                       values: Sequence[object],
                       base_config: Optional[L2QConfig] = None
                       ) -> Tuple[List[ScenarioSpec], Dict[str, object],
                                  Dict[str, L2QConfig]]:
    """Expand scenarios × :class:`L2QConfig` values into a severity grid.

    The companion of :func:`expand_severity_grid` for *learner* parameters
    (e.g. ``dedup_penalty``): every cell keeps its scenario's perturbation
    pipeline untouched and instead overrides one config field, so one sweep
    shows how a knob moves F-score and duplicate waste under a fixed
    hostile condition.  Returns the renamed specs, the grid metadata and
    the per-cell config mapping for :class:`ScenarioSweep`'s
    ``config_by_scenario``.
    """
    if param not in L2QConfig.__dataclass_fields__:
        raise ValueError(f"{param!r} is not an L2QConfig field; config grids "
                         f"sweep learner parameters (e.g. dedup_penalty)")
    if param in _SWEEP_IGNORED_CONFIG_FIELDS:
        # Sweeping a field the evaluation path never reads would emit
        # differently-labelled but byte-identical cells — a flat "curve"
        # that measured nothing.
        raise ValueError(
            f"config parameter {param!r} is ignored by the sweep "
            f"({_SWEEP_IGNORED_CONFIG_FIELDS[param]}); a grid over it "
            f"would produce identical cells")
    if not values:
        raise ValueError("severity grid needs at least one value")
    base = base_config if base_config is not None else L2QConfig()
    specs: List[ScenarioSpec] = []
    configs: Dict[str, L2QConfig] = {}
    for name in scenarios:
        spec = make_scenario(name)
        for value in values:
            config = replace(base, **{param: value})
            try:
                config.validate()
            except (TypeError, ValueError) as error:
                raise ValueError(
                    f"invalid value {value!r} for config parameter "
                    f"{param!r}: {error}") from None
            label = f"{name}@{param}={value}"
            specs.append(replace(spec, name=label))
            configs[label] = config
    grid = {"param": param, "values": list(values),
            "scenarios": list(scenarios), "target": "config"}
    return specs, grid, configs


def _metrics_block(series: Dict[str, object], methods: Sequence[str],
                   num_queries: int) -> Dict[str, Dict[str, float]]:
    """Extract the per-method {precision, recall, f_score} block."""
    return {
        method: {
            "precision": series[method].precision[num_queries],
            "recall": series[method].recall[num_queries],
            "f_score": series[method].f_score[num_queries],
        }
        for method in methods
    }


def _evaluate_corpus(corpus: Corpus, methods: Sequence[str], num_queries: int,
                     num_splits: int, max_test_entities: Optional[int],
                     max_aspects: Optional[int], config: Optional[L2QConfig],
                     base_seed: int,
                     backend: Union[None, str, ExecutionBackend] = None,
                     workers: int = 1
                     ) -> Tuple[Dict[str, Dict[str, float]],
                                Dict[str, Dict[str, float]],
                                Dict[str, float],
                                Dict[str, object]]:
    """Metrics, duplicate waste and fetch accounting of one corpus.

    Returns ``(normalised metrics, absolute metrics, duplicate_waste,
    fetch)``.  The single evaluation routine shared by the in-process sweep
    path and the process-backend worker path, so both fold identical floats
    in identical order — the byte-for-byte equality across backends rests
    on this sharing.
    """
    runner = ExperimentRunner(corpus, config=config, base_seed=base_seed,
                              workers=workers, backend=backend)
    aspects = list(corpus.aspects)
    if max_aspects is not None:
        aspects = aspects[:max_aspects]
    evaluation = runner.evaluate_methods_detailed(
        methods,
        num_queries_list=(num_queries,),
        num_splits=num_splits,
        max_test_entities=max_test_entities,
        aspects=aspects,
    )
    return (_metrics_block(evaluation.normalized, methods, num_queries),
            _metrics_block(evaluation.absolute, methods, num_queries),
            {method: evaluation.duplicate_waste[method][num_queries]
             for method in methods},
            evaluation.fetch_statistics.as_dict())


def assemble_sweep_result(*, scale_name: str, seed: int, num_queries: int,
                          methods: Sequence[str], domains: Sequence[str],
                          specs: Sequence[ScenarioSpec],
                          cell_results: Sequence[SweepCellResult],
                          param_grid: Optional[Dict[str, object]] = None
                          ) -> ScenarioSweepResult:
    """Fold executed cells into the robustness matrix (pure function).

    The aggregation half of the sweep, fully separated from execution:
    given the plain-data cell results — fresh from workers or replayed
    from a campaign's on-disk artifacts — the same inputs produce the
    same :class:`ScenarioSweepResult` (and hence the same JSON bytes).
    This is what lets a resumed campaign emit output byte-identical to an
    uninterrupted run.
    """
    result = ScenarioSweepResult(
        scale=scale_name,
        seed=seed,
        num_queries=num_queries,
        methods=list(methods),
        scenarios=[spec.name for spec in specs],
        param_grid=param_grid,
    )
    by_domain: Dict[str, Dict[Optional[str], SweepCellResult]] = {}
    for cell in cell_results:
        by_domain.setdefault(cell.domain, {})[cell.scenario] = cell
    descriptions = {spec.name: spec.description for spec in specs}
    for domain in domains:
        cells = by_domain[domain]
        clean = cells[None]
        result.clean_by_domain[domain] = {
            "corpus_digest": clean.corpus_digest,
            "metrics": clean.metrics,
            "absolute_metrics": clean.absolute_metrics,
            "duplicate_waste": clean.duplicate_waste,
            "fetch": clean.fetch,
        }
        folded: Dict[str, ScenarioCell] = {}
        for spec in specs:
            cell = cells[spec.name]
            folded[spec.name] = ScenarioCell(
                scenario=spec.name,
                description=descriptions[spec.name],
                corpus_digest=cell.corpus_digest,
                metrics=cell.metrics,
                absolute_metrics=cell.absolute_metrics,
                duplicate_waste=cell.duplicate_waste,
                fetch=cell.fetch,
                f_delta={
                    method: cell.metrics[method]["f_score"]
                    - clean.metrics[method]["f_score"]
                    for method in methods
                },
                absolute_f_delta={
                    method: cell.absolute_metrics[method]["f_score"]
                    - clean.absolute_metrics[method]["f_score"]
                    for method in methods
                },
            )
        result.cells_by_domain[domain] = folded
    return result


def publish_domain_store(scale: ExperimentScale, domain: str,
                         mode: str) -> StoreHandle:
    """Publish one domain's clean base store plus its per-split suites.

    Pages flow straight from the generator into the store writer, so the
    publishing process never materialises the domain's full page set.
    The store also carries the clean cell's trained aspect-classifier
    suites (one per evaluation split, keyed exactly as
    :meth:`~repro.eval.runner.ExperimentRunner._classifier_key` derives
    them), so worker clean cells attach trained models instead of
    retraining per worker; only the pages of split training entities are
    retained in this process to train those suites.  Shared by
    :class:`ScenarioSweep` and the campaign runner — one publish path,
    one store format.
    """
    config = CorpusConfig(domain=domain,
                          num_entities=scale.num_entities[domain],
                          pages_per_entity=scale.pages_per_entity,
                          seed=scale.corpus_seed)
    generator = CorpusGenerator(config.base_config())
    entities = generator.generate_entities()
    writer = CorpusStoreWriter(config, entities)
    # The clean cell's runner derives one split per index from the same
    # base seed; training entities are the split's domain entities
    # (test entities only in the degenerate no-domain-half case).
    splits = [split_entities(sorted(entities),
                             seed=derive_seed(RUNNER_BASE_SEED,
                                              "split", index))
              for index in range(scale.num_splits)]
    needed = set()
    for split in splits:
        needed.update(split.domain_entities or split.test_entities)
    retained = {}
    with perf.phase("store-publish", domain=domain):
        for page in generator.generate_pages(entities):
            writer.add_page(page)
            if page.entity_id in needed:
                retained[page.page_id] = page
    training_corpus = Corpus(generator.domain_spec, entities, retained,
                             type_system=generator.type_system)
    for split in splits:
        suite_seed = derive_seed(RUNNER_BASE_SEED, "classifier",
                                 split.seed)
        with perf.phase("classifier-train", split_seed=split.seed):
            suite = AspectClassifierSuite.train_on_corpus(
                training_corpus.subset(
                    split.domain_entities or split.test_entities),
                seed=suite_seed)
        writer.add_classifier_suite(str(suite_seed), suite)
    with perf.phase("store-publish", domain=domain):
        return writer.publish(mode=mode)


def publish_domain_stores(scale: ExperimentScale, domains: Sequence[str],
                          mode: str) -> Dict[str, StoreHandle]:
    """Stream-publish one clean base store per domain for workers.

    A publish failure stops publishing (already-published domains stay
    usable); affected cells simply rebuild.  With the store off, no
    domain publishes and every cell rebuilds.
    """
    handles: Dict[str, StoreHandle] = {}
    if mode == MODE_OFF:
        return handles
    for domain in domains:
        try:
            handles[domain] = publish_domain_store(scale, domain, mode)
        except StoreError:
            break
    return handles


def execute_sweep_cell(spec: SweepCellSpec) -> SweepCellResult:
    """Worker entry point: evaluate one (domain, scenario) cell from its spec.

    The corpus is rebuilt from the spec (scenario pipelines realise against
    a process-locally cached shared base), evaluated serially, and only the
    plain-data result crosses back — config in, result dataclass out.  With
    profiling on, the cell is timed as a ``sweep-cell`` phase and the
    result carries the cell's phases home (:func:`repro.perf.handoff`).
    """
    with perf.handoff() as phases, \
            perf.phase("sweep-cell", domain=spec.domain,
                       scenario=spec.scenario_name or "clean"):
        result = _execute_sweep_cell(spec)
    result.perf_phases = phases
    return result


def merge_cell_phases(results: Sequence[SweepCellResult]) -> None:
    """Fold the phases distributed sweep cells shipped home, one weighted
    sample per (cell, phase), tagged with the cell (:func:`repro.perf.fold`).

    Only for cells that ran in worker processes: an in-process cell
    already recorded into the orchestrator's recorder.
    """
    for result in results:
        perf.fold(result.perf_phases, domain=result.domain,
                  scenario=result.scenario or "clean")


def _execute_sweep_cell(spec: SweepCellSpec) -> SweepCellResult:
    # Room in the worker's base/corpus caches for every base in the sweep,
    # so interleaved work-stolen cells cannot thrash into regeneration.
    reserve_base_slots(spec.base_slots)
    corpus = spec.corpus.build()
    metrics, absolute, waste, fetch = _evaluate_corpus(
        corpus, spec.methods, spec.num_queries, spec.num_splits,
        spec.max_test_entities, spec.max_aspects, spec.config, spec.base_seed)
    # Store-attached corpora carry their publish-time content digest (the
    # same canonical hash), sparing a full lazy-page realisation pass.
    digest = getattr(corpus, "store_digest", None)
    return SweepCellResult(
        domain=spec.domain,
        scenario=spec.scenario_name,
        corpus_digest=digest if digest is not None else corpus.content_digest(),
        metrics=metrics,
        absolute_metrics=absolute,
        duplicate_waste=waste,
        fetch=fetch,
    )


class ScenarioSweep:
    """Runs selectors × scenarios through the evaluation protocol.

    Parameters
    ----------
    scale:
        Corpus / split sizing preset (``smoke`` by default; a sweep
        generates one *base* corpus per domain and realises every scenario
        pipeline against it).
    scenarios:
        Scenario names to sweep (default: every registered scenario) or
        pre-built :class:`~repro.scenarios.ScenarioSpec` instances.
    methods:
        Selector / baseline names understood by
        :meth:`ExperimentRunner.create_selector`.
    num_queries:
        Query budget evaluated (one budget keeps the matrix 2-D).
    workers:
        Degree of parallelism handed to the backend (results identical for
        any value).
    backend:
        Execution backend name or instance (``serial`` / ``thread`` /
        ``process``; default ``None`` = historical workers semantics).
        Serial and thread evaluate cells in-process; the process backend
        shards whole cells across worker processes.
    param_grid:
        Optional grid metadata from :func:`expand_severity_grid` or
        :func:`expand_config_grid`, embedded verbatim in the result.
    config_by_scenario:
        Optional per-scenario :class:`L2QConfig` overrides (scenario name →
        config), as produced by :func:`expand_config_grid`.  Cells without
        an entry — including the clean baseline — use ``config``.
    """

    def __init__(self, scale: ExperimentScale = SMOKE_SCALE,
                 scenarios: Optional[Sequence[object]] = None,
                 methods: Sequence[str] = DEFAULT_SWEEP_METHODS,
                 domains: Sequence[str] = DOMAINS,
                 num_queries: int = 3,
                 config: Optional[L2QConfig] = None,
                 workers: int = 1,
                 backend: Union[None, str, ExecutionBackend] = None,
                 param_grid: Optional[Dict[str, object]] = None,
                 config_by_scenario: Optional[Dict[str, L2QConfig]] = None,
                 corpus_store: str = "auto") -> None:
        # All inputs are validated eagerly: a sweep cell is expensive, so a
        # typo must fail here, not mid-run after the clean baseline.
        if not methods:
            raise ValueError("at least one method is required")
        harvestable = set(selector_names()) | (BASELINE_METHODS - {"IDEAL"})
        bad_methods = [m for m in methods if m not in harvestable]
        if bad_methods:
            raise ValueError(f"unknown methods {bad_methods}; "
                             f"available: {sorted(harvestable)} "
                             f"(IDEAL is the normalisation denominator and "
                             f"cannot be swept)")
        self.scale = scale
        self.specs: List[ScenarioSpec] = [
            spec if isinstance(spec, ScenarioSpec) else make_scenario(spec)
            for spec in (scenarios if scenarios is not None else scenario_names())
        ]
        if not self.specs:
            raise ValueError("at least one scenario is required")
        seen: Dict[str, int] = {}
        for spec in self.specs:
            seen[spec.name] = seen.get(spec.name, 0) + 1
        duplicates = sorted(name for name, count in seen.items() if count > 1)
        if duplicates:
            raise ValueError(f"duplicate scenarios: {duplicates}")
        bad_domains = [d for d in domains if d not in scale.num_entities]
        if bad_domains:
            raise ValueError(f"unknown domains {bad_domains}; this scale "
                             f"sizes: {sorted(scale.num_entities)}")
        self.methods = list(methods)
        self.domains = list(domains)
        self.num_queries = num_queries
        self.config = config
        self.workers = workers
        self.backend = resolve_backend(backend, workers=workers)
        self.param_grid = param_grid
        #: Shared corpus store policy for the distributed path (one
        #: published base per domain; workers attach instead of
        #: regenerating).  ``auto`` / ``off`` / ``shm`` / ``mmap``.
        self.corpus_store = corpus_store
        resolve_store_mode(corpus_store)  # validate eagerly
        self.config_by_scenario = dict(config_by_scenario or {})
        known = {spec.name for spec in self.specs}
        orphans = sorted(set(self.config_by_scenario) - known)
        if orphans:
            raise ValueError(f"config_by_scenario names unknown scenarios "
                             f"{orphans}; swept: {sorted(known)}")

    def _config_for(self, scenario_name: Optional[str]) -> Optional[L2QConfig]:
        """The L2Q config one cell evaluates with (clean cell: the base)."""
        if scenario_name is None:
            return self.config
        return self.config_by_scenario.get(scenario_name, self.config)

    def run(self) -> ScenarioSweepResult:
        """Evaluate every (domain, scenario) cell and fold in the deltas."""
        if self.backend.distributed:
            cell_results = self._run_distributed()
        else:
            cell_results = self._run_local()
        return assemble_sweep_result(
            scale_name=self.scale.name,
            seed=self.scale.corpus_seed,
            num_queries=self.num_queries,
            methods=self.methods,
            domains=self.domains,
            specs=self.specs,
            cell_results=cell_results,
            param_grid=self.param_grid,
        )

    # -- Execution paths -------------------------------------------------------
    def _run_local(self) -> List[SweepCellResult]:
        """In-process path: one shared base per domain, cells in order.

        The thread backend (if configured) parallelises the harvesting runs
        *inside* each cell's evaluation; cells run sequentially so the
        shared base and engine caches stay warm.
        """
        out: List[SweepCellResult] = []
        for domain in self.domains:
            base = self.scale.base_corpus_for(domain)
            for scenario, corpus in self._domain_corpora(base):
                name = scenario.name if scenario else None
                with perf.phase("sweep-cell", domain=domain,
                                scenario=name or "clean"):
                    metrics, absolute, waste, fetch = _evaluate_corpus(
                        corpus, self.methods, self.num_queries,
                        self.scale.num_splits, self.scale.max_test_entities,
                        self.scale.max_aspects, self._config_for(name),
                        RUNNER_BASE_SEED,
                        backend=self.backend, workers=self.workers)
                out.append(SweepCellResult(
                    domain=domain,
                    scenario=name,
                    corpus_digest=corpus.content_digest(),
                    metrics=metrics,
                    absolute_metrics=absolute,
                    duplicate_waste=waste,
                    fetch=fetch,
                ))
        return out

    def _domain_corpora(self, base):
        """Yield (scenario-or-None, corpus) pairs realised from one base."""
        yield None, realise_base(base)
        for spec in self.specs:
            if spec.shares_base:
                yield spec, spec.corpus_from_base(base)
            else:
                # Config overrides change the base generation itself; this
                # scenario pays for its own full generation.
                yield spec, self.scale.corpus_for(base.domain, scenario=spec)

    def _publish_domain_stores(self) -> Dict[str, StoreHandle]:
        """One clean base store per domain (see :func:`publish_domain_stores`).

        Scenario cells perturb the base, so their runners always retrain
        classifiers — attached suites would describe the wrong corpus.
        """
        return publish_domain_stores(self.scale, self.domains,
                                     self.corpus_store)

    def _run_distributed(self) -> List[SweepCellResult]:
        """Process path: shard whole (domain, scenario) cells across workers.

        Cells are ordered domain-major, so contiguous shards keep a
        domain's cells together and the workers' process-local base-corpus
        caches amortise generation the same way the in-process path does.
        Unless the store is off, each domain's clean base is published to a
        shared corpus store first and every cell spec carries its handle:
        workers attach (clean cells zero-copy, base-sharing scenarios
        perturb the attached base) instead of regenerating, and fall back
        to generation if a segment vanishes.  Stores are unlinked once the
        dispatch returns — attached workers keep their mappings.
        """
        handles = self._publish_domain_stores()
        cell_specs = [
            SweepCellSpec(
                corpus=replace(
                    self.scale.corpus_spec_for(domain, scenario=scenario),
                    store_handle=handles.get(domain)),
                methods=tuple(self.methods),
                num_queries=self.num_queries,
                num_splits=self.scale.num_splits,
                max_test_entities=self.scale.max_test_entities,
                max_aspects=self.scale.max_aspects,
                config=self._config_for(scenario.name if scenario else None),
                base_seed=RUNNER_BASE_SEED,
            )
            for domain in self.domains
            for scenario in [None] + list(self.specs)
        ]
        base_slots = len({spec.corpus.base_key() for spec in cell_specs})
        cell_specs = [replace(spec, base_slots=base_slots)
                      for spec in cell_specs]
        try:
            with perf.phase("sweep-dispatch", cells=len(cell_specs),
                            workers=self.backend.workers):
                results = self.backend.map(execute_sweep_cell, cell_specs)
            merge_cell_phases(results)
            return results
        finally:
            for handle in handles.values():
                release(handle)

def run_scenario_sweep(scale: ExperimentScale = SMOKE_SCALE,
                       scenarios: Optional[Sequence[object]] = None,
                       methods: Sequence[str] = DEFAULT_SWEEP_METHODS,
                       domains: Sequence[str] = DOMAINS,
                       num_queries: int = 3,
                       config: Optional[L2QConfig] = None,
                       workers: int = 1,
                       backend: Union[None, str, ExecutionBackend] = None,
                       corpus_store: str = "auto"
                       ) -> ScenarioSweepResult:
    """Convenience wrapper: build a :class:`ScenarioSweep` and run it."""
    return ScenarioSweep(scale=scale, scenarios=scenarios, methods=methods,
                         domains=domains, num_queries=num_queries,
                         config=config, workers=workers, backend=backend,
                         corpus_store=corpus_store).run()
