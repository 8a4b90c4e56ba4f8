"""Experiment orchestration: splits, domain preparation, harvesting, scoring.

:class:`ExperimentRunner` reproduces the paper's evaluation protocol
(Sect. VI-A):

1. split the entities of a domain into domain / validation / test sets;
2. train the per-aspect classifiers (whose output the learner treats as the
   relevance function ``Y``);
3. run the one-off domain phase per aspect on the domain entities' pages;
4. for every test entity and aspect, run the harvesting loop with each
   method and with the infeasible *ideal* upper bound;
5. report precision / recall / F-score normalised against the ideal,
   averaged over entities, aspects and repeated splits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import perf
from repro.aspects.classifier import AspectClassifierSuite
from repro.aspects.relevance import ClassifierRelevance, OracleRelevance, RelevanceFunction
from repro.baselines.adaptive_querying import AdaptiveQueryingSelection
from repro.baselines.harvest_rate import (
    HarvestRateDomain,
    HarvestRateSelection,
    HarvestRateStatistics,
)
from repro.baselines.lm_feedback import LanguageModelFeedbackSelection
from repro.baselines.manual import ManualQuerySelection
from repro.baselines.oracle import IdealPoolCache, IdealSelection
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainModel, DomainPhase
from repro.core.harvester import HarvestJob, HarvestResult, Harvester
from repro.core.selection import QuerySelector, make_selector, selector_names
from repro.corpus.corpus import Corpus
from repro.dedup.signatures import PageSignatureCache
from repro.dedup.waste import DuplicateWasteScorer
from repro.eval.metrics import HarvestMetrics, MetricSeries, compute_metrics
from repro.eval.splits import EntitySplit, split_entities, subsample_entities
from repro.exec.backends import ExecutionBackend, resolve_backend
from repro.exec.specs import (
    CorpusSpec,
    HarvestBatchOutcome,
    HarvestBatchSpec,
    HarvestJobSpec,
    HarvestTaskContext,
    _ProcessLocalCache,
    reserve_base_slots,
)
from repro.search.engine import FetchStatistics, SearchEngine, merge_run_accounting
from repro.store import (
    MODE_OFF,
    CorpusStoreWriter,
    StoreError,
    StoreHandle,
    release,
)
from repro.store import resolve_mode as resolve_store_mode
from repro.corpus.synthetic import CorpusConfig
from repro.utils.rng import derive_seed

#: Methods that consume the domain phase output.
DOMAIN_AWARE_METHODS = frozenset({"P+q", "R+q", "P+t", "R+t", "L2QP", "L2QR", "L2QBAL", "HR"})
#: Baseline method names handled outside the core selector registry.
BASELINE_METHODS = frozenset({"LM", "AQ", "HR", "MQ", "IDEAL"})


@dataclass
class PreparedSplit:
    """Everything derived from one entity split, ready for harvesting."""

    split: EntitySplit
    corpus: Corpus
    domain_corpus: Corpus
    classifier_suite: AspectClassifierSuite
    relevance_by_aspect: Dict[str, RelevanceFunction]
    ground_truth_by_aspect: Dict[str, RelevanceFunction]
    engine: SearchEngine
    config: L2QConfig
    domain_fraction: float = 1.0
    #: True when the classifier suite was attached from a published store
    #: instead of trained (the zero-retrain guarantee probed by outcomes).
    classifier_attached: bool = False
    _domain_models: Dict[str, DomainModel] = field(default_factory=dict)
    _domain_phase: Optional[DomainPhase] = None
    _hr_domain: Optional[HarvestRateDomain] = None
    _hr_statistics: Dict[str, HarvestRateStatistics] = field(default_factory=dict)
    #: The ideal selector's per-entity candidate pools, filled by the
    #: selectors on each entity's first selection and shared by the
    #: entity's aspect sessions (see
    #: :class:`~repro.baselines.oracle.IdealPool`).
    ideal_pools: IdealPoolCache = field(default_factory=dict)
    #: The one harvester of this split (see
    #: :meth:`ExperimentRunner.harvester_for`); a copy made with
    #: :func:`dataclasses.replace` starts without one.
    _harvester: Optional[Harvester] = field(default=None, init=False,
                                            repr=False, compare=False)

    def domain_phase(self) -> DomainPhase:
        """The split's one :class:`DomainPhase`, built on first use."""
        if self._domain_phase is None:
            self._domain_phase = DomainPhase(self.domain_corpus, self.config)
        return self._domain_phase

    def domain_model(self, aspect: str) -> DomainModel:
        """Lazily learn (and cache) the domain model for one aspect.

        Every aspect shares one :class:`DomainPhase`, so the domain graph
        is built once per split.
        """
        model = self._domain_models.get(aspect)
        if model is None:
            model = self.domain_phase().learn(aspect, self.relevance_by_aspect[aspect])
            self._domain_models[aspect] = model
        return model

    def hr_statistics(self, aspect: str) -> HarvestRateStatistics:
        """Lazily compute (and cache) the HR baseline statistics for one aspect.

        Every aspect shares one :class:`HarvestRateDomain`, built from the
        domain phase's queries, so the domain pages are enumerated once per
        split for the domain phase and HR together.
        """
        stats = self._hr_statistics.get(aspect)
        if stats is None:
            if self._hr_domain is None:
                self._hr_domain = HarvestRateDomain.from_queries(
                    self.domain_phase().domain_queries(),
                    self.domain_corpus.type_system)
            stats = HarvestRateStatistics.from_domain(
                self._hr_domain, self.relevance_by_aspect[aspect])
            self._hr_statistics[aspect] = stats
        return stats


@dataclass
class EfficiencyReport:
    """Per-method selection time vs fetch time (the Fig. 14 rows).

    ``cache_hit_rates`` reports, per method, the fraction of engine-cache
    lookups the method's own runs answered from cache.  Every method is
    timed against *cold* caches (a fresh prepared split per method), so a
    method's hit rate reflects only its own query-repetition behaviour —
    not what an earlier-measured method happened to warm.
    """

    selection_seconds: Dict[str, float]
    fetch_seconds: float
    queries_measured: Dict[str, int]
    cache_hit_rates: Dict[str, float] = field(default_factory=dict)


@dataclass
class EvaluationSeries:
    """Both views of one evaluation: ideal-normalised and absolute.

    ``normalized`` divides each metric by the infeasible ideal selector's
    score (the paper's presentation); ``absolute`` is the raw metric.  A
    scenario can *raise* a normalised score purely because the ideal
    denominator degrades — the absolute view makes that visible.  Both are
    folded from the same harvest runs, so asking for both costs nothing
    extra.

    ``duplicate_waste`` maps method → budget → mean fraction of fetched
    pages that were exact or near-duplicate re-fetches (see
    :class:`~repro.dedup.waste.DuplicateWasteScorer`); lower is better.
    ``fetch_statistics`` is the batch-level fetch accounting merged from
    every harvest run's own records — identical across execution backends
    by construction (it reads result payloads, never live engines).
    """

    normalized: Dict[str, MetricSeries]
    absolute: Dict[str, MetricSeries]
    duplicate_waste: Dict[str, Dict[int, float]] = field(default_factory=dict)
    fetch_statistics: FetchStatistics = field(default_factory=FetchStatistics)


class ExperimentRunner:
    """Runs the paper's evaluation protocol over one corpus.

    ``backend`` picks the execution engine for the harvesting runs (a
    registered name, an :class:`ExecutionBackend` instance, or ``None``
    for the ``workers`` default: 1 = serial, N = process pool).  Per-run
    seeds are derived from ``(base_seed, split, method, entity, aspect)``
    and never from execution order, so every backend and worker count
    yields identical results.

    Distributed (process) backends shard **split-first**, and need
    ``corpus_spec`` to say how workers rebuild the corpus: every split's
    job specs travel as one :class:`~repro.exec.specs.HarvestBatchSpec`,
    so each worker prepares and trains classifiers for exactly one split
    per batch (see :func:`plan_harvest_batches` for the ``workers >
    num_splits`` page-batch fallback).  A distributed backend without a
    ``corpus_spec`` is rejected at construction.
    """

    def __init__(self, corpus: Corpus, config: Optional[L2QConfig] = None,
                 base_seed: int = 99, workers: int = 1,
                 backend: Union[None, str, ExecutionBackend] = None,
                 corpus_spec: Optional[CorpusSpec] = None,
                 corpus_store: str = "auto") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.corpus = corpus
        self.config = config if config is not None else L2QConfig()
        self.config.validate()
        self.base_seed = base_seed
        self.workers = workers
        self.backend = resolve_backend(backend, workers=workers)
        if self.backend.distributed and corpus_spec is None:
            raise ValueError(
                f"the {self.backend.name} backend ships corpus specs to its "
                f"workers; pass corpus_spec= describing this corpus")
        self.corpus_spec = corpus_spec
        #: Shared corpus store policy for distributed dispatches:
        #: ``auto`` (probe shm, else mmap), ``off``, ``shm`` or ``mmap``.
        self.corpus_store = corpus_store
        if corpus_store != MODE_OFF:
            resolve_store_mode(corpus_store)  # validate eagerly
        self._store_handle: Optional[StoreHandle] = None
        self._store_failed = False
        self._corpus_digest: Optional[str] = None
        #: Every page's MinHash signature, shared by the harvesters this
        #: runner builds (novelty, with the dedup penalty on) and by its
        #: waste scorers, so that each page is signed once per runner.
        self.page_signatures = PageSignatureCache(self.config)
        #: Probes of the last distributed dispatch (split-first sharding):
        #: one :class:`~repro.exec.specs.HarvestBatchOutcome` per executed
        #: batch, carrying worker pid, split index and how many prepared
        #: runtimes the batch built.  Instrumentation for tests and perf
        #: accounting; empty until a distributed evaluation ran.
        self.last_batch_outcomes: List[HarvestBatchOutcome] = []

    # -- Preparation ------------------------------------------------------------
    def prepare(self, split: EntitySplit, domain_fraction: float = 1.0) -> PreparedSplit:
        """Prepare one split: train classifiers and set up the engine.

        ``domain_fraction`` subsamples the entities visible to the *domain
        phase* only (Fig. 11); the aspect classifiers are always trained on
        the full domain half, mirroring the paper where the classifier is a
        fixed, pre-trained component.
        """
        with perf.phase("split-prepare", split_seed=split.seed,
                        domain_fraction=domain_fraction):
            suite, classifier_attached = self._classifier_suite(split)

            if domain_fraction >= 1.0:
                domain_entity_ids: Sequence[str] = split.domain_entities
            else:
                domain_entity_ids = subsample_entities(
                    split.domain_entities, domain_fraction,
                    seed=derive_seed(self.base_seed, "domain-fraction", split.seed))
            domain_corpus = self.corpus.subset(domain_entity_ids) if domain_entity_ids \
                else self.corpus.subset([])

            relevance = {aspect: ClassifierRelevance(aspect, suite)
                         for aspect in self.corpus.aspects}
            ground_truth = {aspect: OracleRelevance(aspect) for aspect in self.corpus.aspects}
            engine = SearchEngine(self.corpus, ranker=self.config.ranker,
                                  top_k=self.config.top_k, mu=self.config.dirichlet_mu)
            return PreparedSplit(
                split=split,
                corpus=self.corpus,
                domain_corpus=domain_corpus,
                classifier_suite=suite,
                relevance_by_aspect=relevance,
                ground_truth_by_aspect=ground_truth,
                engine=engine,
                config=self.config,
                domain_fraction=domain_fraction,
                classifier_attached=classifier_attached,
            )

    def _classifier_key(self, split: EntitySplit) -> str:
        """Store key of this split's trained suite (shared orchestrator/worker)."""
        return str(derive_seed(self.base_seed, "classifier", split.seed))

    def _classifier_suite(self, split: EntitySplit
                          ) -> Tuple[AspectClassifierSuite, bool]:
        """Attach the split's trained suite from the store, else train it.

        A store-backed corpus may carry suites published at dispatch
        (:meth:`_ensure_store`); attaching one is zero-copy and skips both
        the training pass *and* realising the classifier corpus subset.
        Any :class:`~repro.store.StoreError` — no classifier block, unknown
        key, failed digest check — falls back to the bit-identical retrain
        path.  Returns ``(suite, attached)``.
        """
        attach_source = getattr(self.corpus, "classifier_suite", None)
        if attach_source is not None:
            try:
                with perf.phase("classifier-attach", split_seed=split.seed):
                    return attach_source(self._classifier_key(split)), True
            except StoreError:
                pass
        with perf.phase("classifier-train", split_seed=split.seed):
            return self._train_classifier_suite(split), False

    def _train_classifier_suite(self, split: EntitySplit) -> AspectClassifierSuite:
        """Train the split's suite on the domain half (the reference path)."""
        global _CLASSIFIER_TRAININGS
        _CLASSIFIER_TRAININGS += 1
        classifier_corpus = self.corpus.subset(split.domain_entities) \
            if split.domain_entities else self.corpus.subset(split.test_entities)
        return AspectClassifierSuite.train_on_corpus(
            classifier_corpus,
            seed=derive_seed(self.base_seed, "classifier", split.seed))

    def default_split(self, split_seed: int = 0) -> EntitySplit:
        """The canonical 50/25/25 split of this corpus's entities."""
        return split_entities(self.corpus.entity_ids(),
                              seed=derive_seed(self.base_seed, "split", split_seed))

    # -- Selector creation ----------------------------------------------------------
    def create_selector(self, method: str, prepared: PreparedSplit,
                        aspect: str) -> QuerySelector:
        """Create a fresh selector instance for one harvesting run."""
        if method in selector_names():
            return make_selector(method, self.config)
        if method == "LM":
            return LanguageModelFeedbackSelection()
        if method == "AQ":
            return AdaptiveQueryingSelection()
        if method == "HR":
            return HarvestRateSelection(prepared.hr_statistics(aspect))
        if method == "MQ":
            return ManualQuerySelection(self.corpus.domain_spec)
        if method == "IDEAL":
            return IdealSelection(prepared.ground_truth_by_aspect[aspect],
                                  pools=prepared.ideal_pools)
        raise KeyError(f"unknown method {method!r}")

    def job_spec(self, split: EntitySplit, method: str, entity_id: str,
                 aspect: str, num_queries: int) -> HarvestJobSpec:
        """The picklable configuration of one harvesting run.

        The seed derives from ``(base_seed, split, method, entity, aspect)``
        — never from execution order — so the spec reproduces the same run
        in this process or any worker.
        """
        return HarvestJobSpec(
            method=method,
            entity_id=entity_id,
            aspect=aspect,
            num_queries=num_queries,
            seed=derive_seed(self.base_seed, "harvest", split.seed,
                             method, entity_id, aspect),
        )

    def job_from_spec(self, prepared: PreparedSplit,
                      spec: HarvestJobSpec) -> HarvestJob:
        """Resolve a :class:`HarvestJobSpec` into a live, single-use job.

        Everything a job needs — selector instance, domain model, HR
        statistics — is resolved here, on the calling thread, so executing
        the job later touches no lazily-built shared state, with one
        exception: the ideal selector's per-entity pools
        (:attr:`PreparedSplit.ideal_pools`) are built on each entity's first
        selection.  A pool is immutable once built and a pure function of
        the split and the entity, so two of an entity's sessions that a
        caller races on its own threads build identical pools and need no
        lock.
        """
        selector = self.create_selector(spec.method, prepared, spec.aspect)
        domain_model = (prepared.domain_model(spec.aspect)
                        if spec.method in DOMAIN_AWARE_METHODS else None)
        relevance = (prepared.ground_truth_by_aspect[spec.aspect]
                     if spec.method == "IDEAL"
                     else prepared.relevance_by_aspect[spec.aspect])
        return HarvestJob(
            entity_id=spec.entity_id,
            aspect=spec.aspect,
            selector=selector,
            relevance=relevance,
            num_queries=spec.num_queries,
            domain_model=domain_model,
            seed=spec.seed,
        )

    def build_job(self, prepared: PreparedSplit, method: str, entity_id: str,
                  aspect: str, num_queries: int) -> HarvestJob:
        """Assemble one single-use harvesting job for (method, entity, aspect)."""
        return self.job_from_spec(
            prepared,
            self.job_spec(prepared.split, method, entity_id, aspect, num_queries))

    def harvester_for(self, prepared: PreparedSplit) -> Harvester:
        """The split's harvester over this corpus and the split's engine.

        One per prepared split, so every session of an entity in the split
        shares the entity's n-gram and graph tables; all of them share the
        runner's page signatures.
        """
        if prepared._harvester is None:
            prepared._harvester = Harvester(self.corpus, prepared.engine, self.config,
                                            page_signatures=self.page_signatures)
        return prepared._harvester

    # -- Single harvest -------------------------------------------------------------
    def harvest_once(self, prepared: PreparedSplit, method: str, entity_id: str,
                     aspect: str, num_queries: int) -> HarvestResult:
        """Run one harvesting loop for (method, entity, aspect)."""
        job = self.build_job(prepared, method, entity_id, aspect, num_queries)
        return self.harvester_for(prepared).harvest_job(job)

    # -- Full evaluation ----------------------------------------------------------------
    def evaluate_methods(self, methods: Sequence[str],
                         num_queries_list: Sequence[int] = (2, 3, 4, 5),
                         num_splits: int = 1,
                         domain_fraction: float = 1.0,
                         max_test_entities: Optional[int] = None,
                         aspects: Optional[Sequence[str]] = None,
                         normalize: bool = True) -> Dict[str, MetricSeries]:
        """Evaluate methods over test entities, aspects and repeated splits.

        Returns one :class:`MetricSeries` per method with ideal-normalised
        (or, with ``normalize=False``, absolute) precision, recall and
        F-score per query budget.
        """
        primary, _, _, _ = self._evaluate_collect(
            methods, num_queries_list=num_queries_list, num_splits=num_splits,
            domain_fraction=domain_fraction, max_test_entities=max_test_entities,
            aspects=aspects, normalize=normalize)
        return primary

    def evaluate_methods_detailed(self, methods: Sequence[str],
                                  num_queries_list: Sequence[int] = (2, 3, 4, 5),
                                  num_splits: int = 1,
                                  domain_fraction: float = 1.0,
                                  max_test_entities: Optional[int] = None,
                                  aspects: Optional[Sequence[str]] = None
                                  ) -> EvaluationSeries:
        """Evaluate methods and return normalised *and* absolute series.

        Both views — plus the ``duplicate_waste`` metric and the merged
        fetch accounting — are folded from the same harvest runs (no extra
        harvesting over :meth:`evaluate_methods`).
        """
        normalized, absolute, waste, fetch = self._evaluate_collect(
            methods, num_queries_list=num_queries_list, num_splits=num_splits,
            domain_fraction=domain_fraction, max_test_entities=max_test_entities,
            aspects=aspects, normalize=True, collect_waste=True)
        return EvaluationSeries(normalized=normalized, absolute=absolute,
                                duplicate_waste=waste, fetch_statistics=fetch)

    def _evaluate_collect(self, methods: Sequence[str],
                          num_queries_list: Sequence[int],
                          num_splits: int, domain_fraction: float,
                          max_test_entities: Optional[int],
                          aspects: Optional[Sequence[str]],
                          normalize: bool,
                          collect_waste: bool = False
                          ) -> Tuple[Dict[str, MetricSeries],
                                     Dict[str, MetricSeries],
                                     Dict[str, Dict[int, float]],
                                     FetchStatistics]:
        """Shared evaluation loop; returns ``(primary, absolute, waste, fetch)``.

        ``primary`` is ideal-normalised when ``normalize`` is set,
        otherwise identical to ``absolute``.  ``waste`` is the per-method
        mean duplicate-waste per budget (empty unless ``collect_waste``,
        which the figure paths skip — fingerprinting pages is pure
        overhead there).  ``fetch`` merges every run's own accounting.
        """
        if not methods:
            raise ValueError("at least one method is required")
        budgets = sorted(set(num_queries_list))
        negative = [k for k in budgets if k < 0]
        if negative:
            # Checked before any harvesting: 0 is the seed-only point.
            raise ValueError(f"query budgets must be >= 0, got {negative}")
        max_budget = budgets[-1]
        aspect_list = list(aspects) if aspects is not None else list(self.corpus.aspects)

        primary: Dict[str, Dict[int, List[HarvestMetrics]]] = {
            method: {k: [] for k in budgets} for method in methods
        }
        absolute: Dict[str, Dict[int, List[HarvestMetrics]]] = {
            method: {k: [] for k in budgets} for method in methods
        }
        waste: Dict[str, Dict[int, List[float]]] = {
            method: {k: [] for k in budgets} for method in methods
        }
        scorer = DuplicateWasteScorer(self.corpus, self.config,
                                      signatures=self.page_signatures) \
            if collect_waste else None
        accountings: List = []

        # Pass 1 — build every split's job specs up front.  One batch per
        # split: every (method, entity, aspect) run plus the ideal
        # upper-bound runs.  Specs and results stay in the same
        # deterministic order, so metric folding is independent of
        # scheduling.
        split_batches: List[Tuple[EntitySplit,
                                  List[Tuple[str, str, List[str]]],
                                  List[HarvestJobSpec]]] = []
        for split_index in range(num_splits):
            split = self.default_split(split_index)
            test_entities = list(split.test_entities)
            if max_test_entities is not None:
                test_entities = test_entities[:max_test_entities]

            targets: List[Tuple[str, str, List[str]]] = []
            specs: List[HarvestJobSpec] = []
            for aspect in aspect_list:
                for entity_id in test_entities:
                    relevant = [p.page_id
                                for p in self.corpus.relevant_pages(entity_id, aspect)]
                    if not relevant:
                        continue
                    targets.append((aspect, entity_id, relevant))
                    if normalize:
                        specs.append(self.job_spec(split, "IDEAL", entity_id,
                                                   aspect, max_budget))
                    for method in methods:
                        specs.append(self.job_spec(split, method, entity_id,
                                                   aspect, max_budget))
            split_batches.append((split, targets, specs))

        # Pass 2 — dispatch all splits at once (split-first on distributed
        # backends: each worker prepares a split at most once), then fold.
        results_per_split = self._run_all_splits(
            [(split, specs) for split, _, specs in split_batches],
            domain_fraction)

        for (split, targets, specs), split_results in zip(split_batches,
                                                          results_per_split):
            accountings.extend(run.fetch_accounting for run in split_results)
            results = iter(split_results)

            for aspect, entity_id, relevant in targets:
                ideal_by_budget: Dict[int, HarvestMetrics] = {}
                if normalize:
                    ideal_run = next(results)
                    ideal_by_budget = {
                        k: compute_metrics(ideal_run.gathered_after(k), relevant)
                        for k in budgets
                    }
                for method in methods:
                    run = next(results)
                    run_waste = (scorer.waste_by_budget(run, budgets)
                                 if scorer is not None else None)
                    for k in budgets:
                        metrics = compute_metrics(run.gathered_after(k), relevant)
                        absolute[method][k].append(metrics)
                        if run_waste is not None:
                            waste[method][k].append(run_waste[k])
                        if normalize:
                            metrics = metrics.normalized_by(ideal_by_budget[k])
                        primary[method][k].append(metrics)

        waste_series = {
            method: {k: (sum(values) / len(values) if values else 0.0)
                     for k, values in waste[method].items()}
            for method in methods
        } if collect_waste else {}
        return ({method: _series_from(method, primary[method]) for method in methods},
                {method: _series_from(method, absolute[method]) for method in methods},
                waste_series,
                merge_run_accounting(accountings))

    # -- Shared corpus store --------------------------------------------------------
    def _ensure_store(self, splits: Sequence[EntitySplit] = ()
                      ) -> Optional[StoreHandle]:
        """Publish this runner's corpus once for workers to attach.

        Only meaningful when the dispatch is distributed, a ``corpus_spec``
        exists and it describes the *clean* corpus (a scenario spec's store
        would have to hold the unperturbed base, which this runner does not
        have).  Publishing streams the live corpus — entities plus pages in
        sorted id order — through a store writer whose incremental digest is
        checked against :attr:`_corpus_digest`, so the published bytes are
        provably the corpus the metrics fold against.

        ``splits`` are the entity splits of the imminent dispatch: each
        split's aspect-classifier suite is trained **once** here (the
        train-once/attach-many side of the classifier vectorization) and
        published alongside the corpus, so workers attach trained suites
        zero-copy instead of retraining per (worker, split).  Publish
        failures latch: the run silently continues on the rebuild path.
        """
        if self._store_handle is not None:
            return self._store_handle
        if (self._store_failed or self.corpus_store == MODE_OFF
                or self.corpus_spec is None
                or self.corpus_spec.scenario is not None):
            return None
        spec = self.corpus_spec
        config = CorpusConfig(domain=spec.domain,
                              num_entities=spec.num_entities,
                              pages_per_entity=spec.pages_per_entity,
                              seed=spec.seed)
        try:
            suites = []
            for split in splits:
                with perf.phase("classifier-train", split_seed=split.seed):
                    suite = self._train_classifier_suite(split)
                suites.append((self._classifier_key(split), suite))

            with perf.phase("store-publish", domain=spec.domain):
                writer = CorpusStoreWriter(config, self.corpus.entities)
                writer.add_pages(self.corpus.iter_pages())
                for key, suite in suites:
                    writer.add_classifier_suite(key, suite)
                handle = writer.publish(mode=self.corpus_store)
                if (self._corpus_digest is not None
                        and handle.digest != self._corpus_digest):
                    release(handle)
                    raise StoreError(
                        f"published digest {handle.digest} does not match "
                        f"the runner's corpus digest {self._corpus_digest}")
            self._store_handle = handle
        except StoreError:
            self._store_failed = True
            return None
        return self._store_handle

    def _dispatch_spec(self, splits: Sequence[EntitySplit] = ()
                       ) -> Optional[CorpusSpec]:
        """The corpus spec workers receive: with a store handle when published."""
        handle = self._ensure_store(splits)
        if handle is None:
            return self.corpus_spec
        return replace(self.corpus_spec, store_handle=handle)

    def release_store(self) -> None:
        """Unlink the published store, if any (idempotent).

        Attached workers keep their mappings; only new attaches stop
        resolving (and fall back to rebuilding).  Also called automatically
        at interpreter exit via the store module's cleanup hook.
        """
        if self._store_handle is not None:
            release(self._store_handle)
            self._store_handle = None
            self._store_failed = False

    def _run_all_splits(self, split_specs: List[Tuple[EntitySplit,
                                                      List[HarvestJobSpec]]],
                        domain_fraction: float) -> List[List[HarvestResult]]:
        """Execute every split's job specs; returns results grouped by split.

        On a distributed backend, the batches are sharded **split-first**:
        :func:`plan_harvest_batches` emits one
        :class:`~repro.exec.specs.HarvestBatchSpec` per split (each worker
        prepares and trains classifiers for exactly one split at a time),
        falling back to cutting splits into contiguous page batches when
        ``workers > num_splits`` so no worker idles.  Batches are
        dispatched with work-stealing scheduling
        (:meth:`~repro.exec.backends.ExecutionBackend.map_tasks`) and the
        executed :class:`~repro.exec.specs.HarvestBatchOutcome` probes are
        kept on :attr:`last_batch_outcomes` for preparation accounting.

        In-process backends prepare each split locally and run its jobs in
        order through :meth:`Harvester.harvest_job`, exactly one
        preparation per split.
        """
        if self.backend.distributed:
            if self._corpus_digest is None:
                # Computed once per runner and shipped with every context:
                # workers refuse to harvest a rebuilt corpus that does not
                # match the corpus the metrics will be folded against.
                self._corpus_digest = self.corpus.content_digest()
            dispatch_spec = self._dispatch_spec(
                [split for split, _ in split_specs])
            payloads = plan_harvest_batches(
                [(HarvestTaskContext(
                    corpus=dispatch_spec,
                    config=self.config,
                    base_seed=self.base_seed,
                    split_index=split_index,
                    domain_fraction=domain_fraction,
                    corpus_digest=self._corpus_digest,
                ), specs) for split_index, (_, specs) in enumerate(split_specs)],
                self.backend.workers)
            outcomes = self.backend.map_tasks(execute_harvest_batch, payloads)
            self.last_batch_outcomes = list(outcomes)
            # Each worker's shipped-home phases: one weighted sample per
            # (batch, phase), tagged with its origin.
            for outcome in self.last_batch_outcomes:
                perf.fold(outcome.perf_phases, worker_pid=outcome.worker_pid,
                          split=outcome.split_index)
            per_split: List[List[HarvestResult]] = [[] for _ in split_specs]
            for payload, outcome in zip(payloads, outcomes):
                # Payloads are split-major and in-order, so extending per
                # split reassembles each split's results in spec order.
                per_split[payload.context.split_index].extend(outcome.results)
            return per_split
        out: List[List[HarvestResult]] = []
        for split, specs in split_specs:
            prepared = self.prepare(split, domain_fraction=domain_fraction)
            jobs = [self.job_from_spec(prepared, spec) for spec in specs]
            harvester = self.harvester_for(prepared)
            out.append([harvester.harvest_job(job) for job in jobs])
        return out

    # -- Efficiency (Fig. 14) --------------------------------------------------------------
    def measure_efficiency(self, methods: Sequence[str] = ("L2QP", "L2QR", "L2QBAL"),
                           num_queries: int = 3,
                           max_test_entities: int = 2,
                           aspects: Optional[Sequence[str]] = None
                           ) -> EfficiencyReport:
        """Measure per-query selection time and (simulated) fetch time.

        Always runs serially regardless of the configured backend or worker
        count: the wall-clock selection times *are* the result here, and
        concurrent runs contending for the interpreter (or a cold per-worker
        engine) would inflate them.

        Every method is measured against **cold** engine state: a freshly
        prepared split (fresh engine, result cache and classifier-relevance
        memos) per method, so no method is timed against caches an
        earlier-measured method warmed.  The report folds the runs'
        :class:`~repro.core.harvester.IterationRecord` timings, and each
        method's engine-cache hit rate, merged from its runs' own fetch
        accounting, is reported alongside them.  With profiling on, each
        method's batch is also timed as one ``fig14-method`` phase.
        """
        split = self.default_split(0)
        aspect_list = list(aspects) if aspects is not None else list(self.corpus.aspects)[:2]
        test_entities = list(split.test_entities)[:max_test_entities]

        selection: Dict[str, List[float]] = {m: [] for m in methods}
        queries: Dict[str, int] = {m: 0 for m in methods}
        hit_rates: Dict[str, float] = {}
        fetch: List[float] = []
        for method in methods:
            # A fresh preparation per method: cold engine caches and memos.
            # Harvest results are identical either way (seeds derive from
            # the spec, never from cache state); only the timings differ.
            prepared = self.prepare(split)
            jobs = [self.build_job(prepared, method, entity_id, aspect, num_queries)
                    for aspect in aspect_list
                    for entity_id in test_entities]
            harvester = self.harvester_for(prepared)
            with perf.phase("fig14-method", method=method):
                runs = [harvester.harvest_job(job) for job in jobs]
            merged = merge_run_accounting([r.fetch_accounting for r in runs])
            hit_rates[method] = merged.cache_hit_rate
            for run in runs:
                for record in run.iterations:
                    selection[method].append(record.selection_seconds)
                    fetch.append(record.simulated_fetch_seconds)
                    queries[method] += 1

        return EfficiencyReport(
            selection_seconds={m: (sum(v) / len(v) if v else 0.0)
                               for m, v in selection.items()},
            fetch_seconds=(sum(fetch) / len(fetch) if fetch else 0.0),
            queries_measured=queries,
            cache_hit_rates=hit_rates,
        )

    # -- Parameter validation --------------------------------------------------------------------
    def validate_seed_recall(self, candidates: Sequence[float] = (0.1, 0.3, 0.5, 0.7),
                             method: str = "L2QBAL", num_queries: int = 3,
                             max_validation_entities: int = 3,
                             aspects: Optional[Sequence[str]] = None) -> Tuple[float, Dict[float, float]]:
        """Choose the seed-recall parameter ``r0`` on the validation entities.

        Mirrors the paper's cross-validation of ``r0`` (Sect. V-A).  Returns
        the best value and the mean F-score of every candidate.  Harvests
        run in this process whatever the backend: each candidate mutates
        this runner's config, which a worker never sees.
        """
        split = self.default_split(0)
        prepared = self.prepare(split)
        harvester = self.harvester_for(prepared)
        aspect_list = list(aspects) if aspects is not None else list(self.corpus.aspects)[:2]
        validation = list(split.validation_entities)[:max_validation_entities]
        scores: Dict[float, float] = {}
        original = self.config.seed_recall_r0
        try:
            for r0 in candidates:
                self.config.seed_recall_r0 = r0
                relevant_sets: List[List[str]] = []
                jobs: List[HarvestJob] = []
                for aspect in aspect_list:
                    for entity_id in validation:
                        relevant = [p.page_id
                                    for p in self.corpus.relevant_pages(entity_id, aspect)]
                        if not relevant:
                            continue
                        relevant_sets.append(relevant)
                        jobs.append(self.build_job(prepared, method, entity_id,
                                                   aspect, num_queries))
                runs = [harvester.harvest_job(job) for job in jobs]
                per_run = [compute_metrics(run.gathered_after(num_queries),
                                           relevant).f_score
                           for relevant, run in zip(relevant_sets, runs)]
                scores[r0] = sum(per_run) / len(per_run) if per_run else 0.0
        finally:
            self.config.seed_recall_r0 = original
        best = max(scores, key=lambda r: (scores[r], -r))
        return best, scores


# -- Split-first batch planning ----------------------------------------------------
def plan_harvest_batches(split_payloads: Sequence[Tuple[HarvestTaskContext,
                                                        Sequence[HarvestJobSpec]]],
                         workers: int) -> List[HarvestBatchSpec]:
    """Cut per-split spec lists into split-first batch payloads.

    The sharding policy of the distributed evaluation path:

    * ``workers <= num_splits`` — one batch per split.  Every split is
      prepared exactly once in the whole cluster, by whichever worker
      steals its batch.
    * ``workers > num_splits`` — each split is cut into
      ``ceil(workers / num_splits)`` contiguous *page batches* so every
      worker has work to steal; the split's context travels with every
      batch, so a worker executing several batches of one split still
      prepares it only once (process-local runtime cache).

    Batches are emitted split-major and in spec order, so concatenating
    result lists per ``context.split_index`` reproduces each split's spec
    order regardless of scheduling.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    payloads = [(context, list(specs)) for context, specs in split_payloads]
    num_splits = sum(1 for _, specs in payloads if specs)
    base_slots = len({context.corpus.base_key()
                      for context, specs in payloads if specs})
    pieces_per_split = 1 if num_splits == 0 or workers <= num_splits \
        else -(-workers // num_splits)
    batches: List[HarvestBatchSpec] = []
    for context, specs in payloads:
        if not specs:
            continue
        pieces = min(pieces_per_split, len(specs))
        size = -(-len(specs) // pieces)
        for start in range(0, len(specs), size):
            batches.append(HarvestBatchSpec(
                context=context, specs=tuple(specs[start:start + size]),
                runtime_slots=num_splits, base_slots=base_slots))
    return batches


# -- Distributed worker side -------------------------------------------------------
#: Rebuilt (runner, prepared, harvester) runtimes, cached per worker process
#: so every batch a worker runs of one split reuses one corpus, classifier
#: suite and engine.
_TASK_RUNTIMES = _ProcessLocalCache(capacity=4)

#: Process-local count of prepared-runtime *builds* (cache misses in
#: ``_TASK_RUNTIMES``).  The preparation probe: batch outcomes report the
#: delta across their execution, so orchestrators can assert each worker
#: prepared each split at most once.
_RUNTIME_BUILDS = 0

#: Process-local count of aspect-classifier suite *trainings*.  The
#: train-once/attach-many probe: with a store carrying published suites,
#: worker batches must report a delta of 0 (attach instead of train).
_CLASSIFIER_TRAININGS = 0


@dataclass
class _TaskRuntime:
    """Everything a worker rebuilds once per (corpus, config, split)."""

    runner: "ExperimentRunner"
    prepared: PreparedSplit
    harvester: Harvester


def _task_runtime(context: HarvestTaskContext) -> _TaskRuntime:
    def build() -> _TaskRuntime:
        global _RUNTIME_BUILDS
        _RUNTIME_BUILDS += 1
        corpus = context.corpus.build()
        if context.corpus_digest is not None:
            # A store-backed corpus carries the publish-time digest, which
            # the publisher already verified against the live corpus —
            # trusting it avoids realising every lazy page just to re-hash.
            digest = getattr(corpus, "store_digest", None)
            if digest is None:
                digest = corpus.content_digest()
            if digest != context.corpus_digest:
                raise ValueError(
                    f"corpus_spec {context.corpus!r} rebuilds a corpus whose "
                    f"digest does not match the orchestrator's corpus; the spec "
                    f"describes a different corpus (stale seed or sizes?)")
        runner = ExperimentRunner(corpus, config=context.config,
                                  base_seed=context.base_seed, workers=1)
        prepared = runner.prepare(runner.default_split(context.split_index),
                                  domain_fraction=context.domain_fraction)
        return _TaskRuntime(runner=runner, prepared=prepared,
                            harvester=runner.harvester_for(prepared))

    return _TASK_RUNTIMES.get_or_build(context.cache_key(), build)


def execute_harvest_batch(batch: HarvestBatchSpec) -> HarvestBatchOutcome:
    """Worker entry point: rebuild one split's world and run its batch.

    Deterministic given the batch alone — the rebuilt corpus, split,
    classifier suite and engine are bit-for-bit what the orchestrating
    process would build, so results are independent of which worker (or
    whether a worker at all) executes the batch.  The outcome carries the
    preparation probe: how many runtimes this batch had to build (0 when
    the worker had already prepared this split for an earlier batch).
    """
    # Room for every split in flight: without this, a worker interleaving
    # work-stolen batches of more splits than the default capacity would
    # evict and re-prepare runtimes it still needs.
    _TASK_RUNTIMES.reserve(batch.runtime_slots)
    # Likewise for the base-corpus and realised-corpus caches: room for
    # every distinct base in the dispatch, so workers touching many
    # (domain, sizes, seed) bases cannot thrash into regeneration cycles.
    reserve_base_slots(batch.base_slots)
    before = _RUNTIME_BUILDS
    trainings_before = _CLASSIFIER_TRAININGS
    # This worker's phase timings for exactly this batch, shipped home so
    # the orchestrator's profile covers worker-side work too.
    with perf.handoff() as perf_phases:
        runtime = _task_runtime(batch.context)
        results = [runtime.harvester.harvest_job(
                       runtime.runner.job_from_spec(runtime.prepared, spec))
                   for spec in batch.specs]
    return HarvestBatchOutcome(
        results=results,
        worker_pid=os.getpid(),
        split_index=batch.context.split_index,
        runtime_builds=_RUNTIME_BUILDS - before,
        perf_phases=perf_phases,
        attached=getattr(runtime.runner.corpus, "store_handle", None)
        is not None,
        index_builds=runtime.prepared.engine.index_builds,
        classifier_trainings=_CLASSIFIER_TRAININGS - trainings_before,
        classifier_attached=runtime.prepared.classifier_attached,
    )


def _series_from(method: str, per_budget: Dict[int, List[HarvestMetrics]]) -> MetricSeries:
    precision: Dict[int, float] = {}
    recall: Dict[int, float] = {}
    f_score: Dict[int, float] = {}
    for budget, metrics in per_budget.items():
        if metrics:
            precision[budget] = sum(m.precision for m in metrics) / len(metrics)
            recall[budget] = sum(m.recall for m in metrics) / len(metrics)
            f_score[budget] = sum(m.f_score for m in metrics) / len(metrics)
        else:
            precision[budget] = 0.0
            recall[budget] = 0.0
            f_score[budget] = 0.0
    return MetricSeries(method=method, precision=precision, recall=recall, f_score=f_score)
