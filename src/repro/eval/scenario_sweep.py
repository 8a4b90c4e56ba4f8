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

Sweeps, campaigns (:mod:`repro.campaign`) and the figures of
:mod:`repro.eval.experiments` share one cell pipeline:
:func:`sweep_cell_specs` lists one corpus realisation's cells, domain-major
and clean first, and :func:`figure_cell_specs` a figure's cells, one per
domain and domain fraction; :func:`publish_base_stores` publishes the
clean base stores a distributed dispatch attaches; and
:func:`dispatch_cells` runs every cell as its own ``backend.map_tasks``
task of :func:`execute_sweep_cell`, on any
:class:`~repro.exec.backends.ExecutionBackend` (:func:`run_cells` does
all three steps and cleans up).  A cell rebuilds its corpus from a
picklable :class:`~repro.exec.specs.SweepCellSpec` against a
process-locally cached base, runs its harvests serially and returns one
:class:`~repro.exec.specs.SessionRow` per scored session, so every
backend produces the same rows and the same JSON byte-for-byte.

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
from repro.corpus.synthetic import CorpusConfig, CorpusGenerator
from repro.eval.experiments import DOMAINS, SMOKE_SCALE, ExperimentScale
from repro.eval.runner import BASELINE_METHODS, ExperimentRunner, fold_rows
from repro.eval.splits import split_entities
from repro.exec.backends import ExecutionBackend, ProcessBackend, resolve_backend
from repro.exec.specs import SweepCellResult, SweepCellSpec, reserve_base_slots
from repro.scenarios import (
    ScenarioSpec,
    is_registered,
    make_scenario,
    scenario_names,
)
from repro.store import (
    MODE_OFF,
    STORE_MODES,
    CorpusStoreWriter,
    StoreError,
    StoreHandle,
    release,
)
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
#: from the runner's ``base_seed`` (``ExperimentRunner.build_job``), so grids
#: over these would produce byte-identical cells.
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


def validate_sweep(scale: ExperimentScale, domains: Sequence[str],
                   scenarios: Sequence[Union[str, ScenarioSpec]],
                   methods: Sequence[str], num_queries: int,
                   corpus_store: str) -> None:
    """Reject inputs no cell could run, before any corpus is built.

    The one validator of :class:`ScenarioSweep` and
    :class:`~repro.campaign.spec.CampaignSpec`: a cell is expensive, so a
    typo must fail here, not mid-run after the clean baseline.
    ``scenarios`` holds registry names or pre-built
    :class:`~repro.scenarios.ScenarioSpec` instances.
    """
    if not domains:
        raise ValueError("at least one domain is required")
    bad_domains = [d for d in domains if d not in scale.num_entities]
    if bad_domains:
        raise ValueError(f"unknown domains {bad_domains}; this scale "
                         f"sizes: {sorted(scale.num_entities)}")
    if not scenarios:
        raise ValueError("at least one scenario is required")
    unknown = [s for s in scenarios
               if not isinstance(s, ScenarioSpec) and not is_registered(s)]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown}; "
                         f"available: {scenario_names()}")
    names = [s.name if isinstance(s, ScenarioSpec) else s for s in scenarios]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate scenarios: {duplicates}")
    if not methods:
        raise ValueError("at least one method is required")
    harvestable = set(selector_names()) | (BASELINE_METHODS - {"IDEAL"})
    bad_methods = [m for m in methods if m not in harvestable]
    if bad_methods:
        raise ValueError(f"unknown methods {bad_methods}; "
                         f"available: {sorted(harvestable)} "
                         f"(IDEAL is the normalisation denominator and "
                         f"cannot be swept)")
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if corpus_store not in STORE_MODES:
        raise ValueError(f"unknown corpus-store mode {corpus_store!r}; "
                         f"options: {STORE_MODES}")


def sweep_cell_specs(scale: ExperimentScale, domains: Sequence[str],
                     scenarios: Sequence[ScenarioSpec],
                     methods: Sequence[str], num_queries: int,
                     config: Optional[L2QConfig] = None,
                     config_by_scenario: Optional[Dict[str, L2QConfig]] = None
                     ) -> List[SweepCellSpec]:
    """The cells of one corpus realisation: domain-major, clean first.

    Each domain contributes its clean baseline, then one cell per scenario
    in order, so a domain's cells are contiguous and share one base.  A
    scenario cell evaluates with its ``config_by_scenario`` entry, every
    other cell with ``config``.  ``base_slots`` is sized to the distinct
    bases of the list (see :func:`~repro.exec.specs.reserve_base_slots`).
    """
    overrides = config_by_scenario or {}
    specs = [
        SweepCellSpec(
            corpus=scale.corpus_spec_for(domain, scenario=scenario),
            methods=tuple(methods),
            num_queries=num_queries,
            num_splits=scale.num_splits,
            max_test_entities=scale.max_test_entities,
            max_aspects=scale.max_aspects,
            config=(overrides.get(scenario.name, config) if scenario
                    else config),
            base_seed=RUNNER_BASE_SEED,
        )
        for domain in domains
        for scenario in [None, *scenarios]
    ]
    base_slots = len({spec.corpus.base_key() for spec in specs})
    return [replace(spec, base_slots=base_slots) for spec in specs]


def figure_cell_specs(scale: ExperimentScale, domains: Sequence[str],
                      methods: Sequence[str], budgets: Sequence[int],
                      config: Optional[L2QConfig] = None,
                      fractions: Sequence[float] = (1.0,)
                      ) -> List[SweepCellSpec]:
    """The cells of one figure: one per domain and domain fraction.

    Figures run clean corpora only.  Every harvest runs to the largest of
    ``budgets``, which is also the budget of the cells' metric blocks, and
    the rows are scored at each of them.
    """
    budgets = tuple(sorted(set(budgets)))
    specs = [
        SweepCellSpec(
            corpus=scale.corpus_spec_for(domain),
            methods=tuple(methods),
            num_queries=budgets[-1],
            num_splits=scale.num_splits,
            max_test_entities=scale.max_test_entities,
            max_aspects=scale.max_aspects,
            config=config,
            base_seed=RUNNER_BASE_SEED,
            budgets=budgets,
            domain_fraction=fraction,
        )
        for domain in domains
        for fraction in fractions
    ]
    base_slots = len({spec.corpus.base_key() for spec in specs})
    return [replace(spec, base_slots=base_slots) for spec in specs]


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


def publish_domain_store(cell: SweepCellSpec, mode: str) -> StoreHandle:
    """Publish the clean base store of ``cell``'s base plus its split suites.

    Pages flow straight from the generator into the store writer, so the
    publishing process never materialises the domain's full page set.
    The store also carries the clean cell's trained aspect-classifier
    suites (one per evaluation split, keyed exactly as
    :meth:`~repro.eval.runner.ExperimentRunner._classifier_key` derives
    them from the cell's ``base_seed``), so worker clean cells attach
    trained models instead of retraining per worker; only the pages of
    split training entities are retained in this process to train those
    suites.  Scenario cells perturb the base, so their runners always
    retrain — attached suites would describe the wrong corpus.
    """
    corpus = cell.corpus
    config = CorpusConfig(domain=corpus.domain,
                          num_entities=corpus.num_entities,
                          pages_per_entity=corpus.pages_per_entity,
                          seed=corpus.seed)
    generator = CorpusGenerator(config.base_config())
    entities = generator.generate_entities()
    writer = CorpusStoreWriter(config, entities)
    # The clean cell's runner derives one split per index from the same
    # base seed; training entities are the split's domain entities
    # (test entities only in the degenerate no-domain-half case).
    splits = [split_entities(sorted(entities),
                             seed=derive_seed(cell.base_seed, "split", index))
              for index in range(cell.num_splits)]
    needed = set()
    for split in splits:
        needed.update(split.domain_entities or split.test_entities)
    retained = {}
    with perf.phase("store-publish", domain=corpus.domain):
        for page in generator.generate_pages(entities):
            writer.add_page(page)
            if page.entity_id in needed:
                retained[page.page_id] = page
    training_corpus = Corpus(generator.domain_spec, entities, retained,
                             type_system=generator.type_system)
    for split in splits:
        suite_seed = derive_seed(cell.base_seed, "classifier", split.seed)
        with perf.phase("classifier-train", split_seed=split.seed):
            suite = AspectClassifierSuite.train_on_corpus(
                training_corpus.subset(
                    split.domain_entities or split.test_entities),
                seed=suite_seed)
        writer.add_classifier_suite(str(suite_seed), suite)
    with perf.phase("store-publish", domain=corpus.domain):
        return writer.publish(mode=mode)


def publish_base_stores(backend: ExecutionBackend,
                        specs: Sequence[SweepCellSpec],
                        mode: str) -> Dict[str, StoreHandle]:
    """Publish one clean base store per distinct base a dispatch needs.

    Keyed by :meth:`~repro.exec.specs.CorpusSpec.base_key`.  Only a
    distributed backend attaches stores; in-process cells share the
    process-local base cache, so they, and a store that is ``off``,
    publish nothing.  A publish failure stops publishing: bases already
    published stay usable, and the cells of the rest rebuild.
    """
    handles: Dict[str, StoreHandle] = {}
    if not backend.distributed or mode == MODE_OFF:
        return handles
    for spec in specs:
        key = spec.corpus.base_key()
        if key in handles:
            continue
        try:
            handles[key] = publish_domain_store(spec, mode)
        except StoreError:
            break
    return handles


def execute_sweep_cell(spec: SweepCellSpec) -> SweepCellResult:
    """Evaluate one cell from its spec: the one worker entry point.

    The corpus is rebuilt from the spec (scenario pipelines realise against
    a process-locally cached shared base) and one serial
    :class:`ExperimentRunner` scores every session of it as rows
    (:meth:`~ExperimentRunner.evaluate_rows`); the metric blocks are the
    rows' fold (:func:`~repro.eval.runner.fold_rows`) at the cell's
    ``num_queries``.  Only the plain-data result crosses back — config in,
    result dataclass out.  With profiling on, the cell is timed as a
    ``sweep-cell`` phase and the result carries the cell's phases home
    (:func:`repro.perf.handoff`).
    """
    with perf.handoff() as phases, \
            perf.phase("sweep-cell", domain=spec.domain,
                       scenario=spec.scenario_name or "clean"):
        # Room in the caches for every base in the dispatch, so
        # interleaved work-stolen cells cannot thrash into regeneration.
        reserve_base_slots(spec.base_slots)
        corpus = spec.corpus.build()
        runner = ExperimentRunner(corpus, config=spec.config,
                                  base_seed=spec.base_seed)
        rows, fetch = runner.evaluate_rows(
            spec.methods,
            num_queries_list=spec.query_budgets,
            num_splits=spec.num_splits,
            domain_fraction=spec.domain_fraction,
            max_test_entities=spec.max_test_entities,
            aspects=list(corpus.aspects)[:spec.max_aspects],
        )
        evaluation = fold_rows(rows, spec.methods, spec.query_budgets)
        # Store-attached corpora carry their publish-time content digest
        # (the same canonical hash), sparing a full lazy-page realisation.
        digest = getattr(corpus, "store_digest", None)
        if digest is None:
            digest = corpus.content_digest()
        result = SweepCellResult(
            domain=spec.domain,
            scenario=spec.scenario_name,
            corpus_digest=digest,
            metrics=_metrics_block(evaluation.normalized, spec.methods,
                                   spec.num_queries),
            absolute_metrics=_metrics_block(evaluation.absolute,
                                            spec.methods, spec.num_queries),
            duplicate_waste={
                method: evaluation.duplicate_waste[method][spec.num_queries]
                for method in spec.methods},
            fetch=fetch.as_dict(),
            rows=rows,
        )
    result.perf_phases = phases
    return result


def dispatch_cells(backend: ExecutionBackend, specs: Sequence[SweepCellSpec],
                   handles: Dict[str, StoreHandle]) -> List[SweepCellResult]:
    """Run every cell as its own backend task; results in spec order.

    Each cell travels with its base's store handle from
    :func:`publish_base_stores`, if one was published: transport only, it
    never changes what a cell denotes, or its key.  Cells that ran in
    worker processes shipped their phases home, and they are folded here,
    one weighted sample per (cell, phase) (:func:`repro.perf.fold`);
    in-process cells already recorded into this process's recorder.
    """
    shipped = [replace(spec, corpus=replace(
        spec.corpus, store_handle=handles.get(spec.corpus.base_key())))
        for spec in specs]
    results = backend.map_tasks(execute_sweep_cell, shipped)
    if backend.distributed:
        for result in results:
            perf.fold(result.perf_phases, domain=result.domain,
                      scenario=result.scenario or "clean")
    return results


def run_cells(specs: Sequence[SweepCellSpec], workers: int = 1,
              backend: Union[None, str, ExecutionBackend] = None,
              corpus_store: str = "auto") -> List[SweepCellResult]:
    """Publish, dispatch and clean up one set of cells; results in order.

    ``workers`` / ``backend`` resolve as :func:`~repro.exec.backends
    .resolve_backend` takes them.  The clean base stores a distributed
    dispatch attaches (:func:`publish_base_stores`) are released once it
    returns, and a process pool this call created is closed; a backend
    instance passed in stays open for its owner.
    """
    if corpus_store not in STORE_MODES:
        raise ValueError(f"unknown corpus-store mode {corpus_store!r}; "
                         f"options: {STORE_MODES}")
    engine = resolve_backend(backend, workers=workers)
    handles = publish_base_stores(engine, specs, corpus_store)
    try:
        with perf.phase("sweep-dispatch", cells=len(specs),
                        workers=engine.workers):
            return dispatch_cells(engine, specs, handles)
    finally:
        for handle in handles.values():
            release(handle)
        if engine is not backend and isinstance(engine, ProcessBackend):
            engine.close()


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
    workers / backend:
        Execution engine for the cells, as :func:`~repro.exec.backends
        .resolve_backend` takes them (default: serial for one worker,
        process for more).  Every backend dispatches one task per cell and
        a cell's harvests run serially, so results are identical for any
        backend and worker count.
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
        scenarios = list(scenarios if scenarios is not None
                         else scenario_names())
        validate_sweep(scale, domains, scenarios, methods, num_queries,
                       corpus_store)
        self.scale = scale
        self.specs: List[ScenarioSpec] = [
            spec if isinstance(spec, ScenarioSpec) else make_scenario(spec)
            for spec in scenarios
        ]
        self.methods = list(methods)
        self.domains = list(domains)
        self.num_queries = num_queries
        self.config = config
        self.backend = resolve_backend(backend, workers=workers)
        self.param_grid = param_grid
        #: Shared corpus store policy of distributed dispatches (one
        #: published base per domain; workers attach instead of
        #: regenerating).  ``auto`` / ``off`` / ``shm`` / ``mmap``.
        self.corpus_store = corpus_store
        self.config_by_scenario = dict(config_by_scenario or {})
        known = {spec.name for spec in self.specs}
        orphans = sorted(set(self.config_by_scenario) - known)
        if orphans:
            raise ValueError(f"config_by_scenario names unknown scenarios "
                             f"{orphans}; swept: {sorted(known)}")

    def run(self) -> ScenarioSweepResult:
        """Evaluate every (domain, scenario) cell and fold in the deltas.

        Stores published for a distributed dispatch are released once it
        returns; attached workers keep their mappings.
        """
        specs = sweep_cell_specs(self.scale, self.domains, self.specs,
                                 self.methods, self.num_queries, self.config,
                                 self.config_by_scenario)
        cell_results = run_cells(specs, backend=self.backend,
                                 corpus_store=self.corpus_store)
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
