"""Experiment orchestration: splits, domain preparation, harvesting, scoring.

:class:`ExperimentRunner` reproduces the paper's evaluation protocol
(Sect. VI-A):

1. split the entities of a domain into domain / validation / test sets;
2. train the per-aspect classifiers (whose output the learner treats as the
   relevance function ``Y``);
3. run the one-off domain phase per aspect on the domain entities' pages;
4. for every test entity and aspect, run the harvesting loop with each
   method and with the infeasible *ideal* upper bound;
5. score each session at each query budget as one row
   (:meth:`ExperimentRunner.evaluate_rows`), and fold the rows into
   precision / recall / F-score normalised against the ideal, averaged
   over entities, aspects and repeated splits (:func:`fold_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.eval.metrics import MetricSeries, compute_metrics
from repro.eval.splits import EntitySplit, split_entities, subsample_entities
from repro.exec.specs import SessionRow
from repro.search.engine import FetchStatistics, SearchEngine, merge_run_accounting
from repro.store import StoreError
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
    ``fetch_statistics`` is the fetch accounting merged from every
    harvest run's own records — identical in any process by construction
    (it reads result payloads, never live engines).
    """

    normalized: Dict[str, MetricSeries]
    absolute: Dict[str, MetricSeries]
    duplicate_waste: Dict[str, Dict[int, float]] = field(default_factory=dict)
    fetch_statistics: FetchStatistics = field(default_factory=FetchStatistics)


class ExperimentRunner:
    """Runs the paper's evaluation protocol over one corpus, in this process.

    Per-run seeds are derived from ``(base_seed, split, method, entity,
    aspect)`` and never from execution order, so a run reproduces in any
    process.  Fan-out happens one level up: figures, sweeps and campaigns
    dispatch cells (:func:`~repro.eval.scenario_sweep.execute_sweep_cell`),
    and each cell runs one runner serially.
    """

    def __init__(self, corpus: Corpus, config: Optional[L2QConfig] = None,
                 base_seed: int = 99, corpus_store: str = "auto") -> None:
        # ``corpus_store`` is accepted and unread: the runner publishes no
        # store (a cell's corpus attaches one through its CorpusSpec).  It
        # stays only because perfbench's l2q-sessions workload passes
        # ``corpus_store="off"``, and it goes when the store is retired.
        del corpus_store
        self.corpus = corpus
        self.config = config if config is not None else L2QConfig()
        self.config.validate()
        self.base_seed = base_seed
        #: Every page's MinHash signature, shared by the harvesters this
        #: runner builds (novelty, with the dedup penalty on) and by its
        #: waste scorers, so that each page is signed once per runner.
        self.page_signatures = PageSignatureCache(self.config)

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
            suite = self._classifier_suite(split)

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
            )

    def _classifier_key(self, split: EntitySplit) -> str:
        """Store key of this split's trained suite (shared publisher/worker)."""
        return str(derive_seed(self.base_seed, "classifier", split.seed))

    def _classifier_suite(self, split: EntitySplit) -> AspectClassifierSuite:
        """Attach the split's trained suite from the store, else train it.

        A store-backed corpus may carry suites published at dispatch
        (:func:`~repro.eval.scenario_sweep.publish_domain_store`); attaching
        one is zero-copy and skips both the training pass *and* realising
        the classifier corpus subset.
        Any :class:`~repro.store.StoreError` — no classifier block, unknown
        key, failed digest check — falls back to the bit-identical retrain
        path.
        """
        attach_source = getattr(self.corpus, "classifier_suite", None)
        if attach_source is not None:
            try:
                with perf.phase("classifier-attach", split_seed=split.seed):
                    return attach_source(self._classifier_key(split))
            except StoreError:
                pass
        with perf.phase("classifier-train", split_seed=split.seed):
            classifier_corpus = self.corpus.subset(
                split.domain_entities or split.test_entities)
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

    def build_job(self, prepared: PreparedSplit, method: str, entity_id: str,
                  aspect: str, num_queries: int) -> HarvestJob:
        """Assemble one single-use harvesting job for (method, entity, aspect).

        The seed derives from ``(base_seed, split, method, entity, aspect)``
        — never from execution order — so the job reproduces the same run
        in this process or any worker.  Everything a job needs — selector
        instance, domain model, HR statistics — is resolved here, on the
        calling thread, so executing the job later touches no lazily-built
        shared state, with one exception: the ideal selector's per-entity
        pools (:attr:`PreparedSplit.ideal_pools`) are built on each
        entity's first selection.  A pool is immutable once built and a
        pure function of the split and the entity, so two of an entity's
        sessions that a caller races on its own threads build identical
        pools and need no lock.
        """
        selector = self.create_selector(method, prepared, aspect)
        domain_model = (prepared.domain_model(aspect)
                        if method in DOMAIN_AWARE_METHODS else None)
        relevance = (prepared.ground_truth_by_aspect[aspect] if method == "IDEAL"
                     else prepared.relevance_by_aspect[aspect])
        return HarvestJob(
            entity_id=entity_id,
            aspect=aspect,
            selector=selector,
            relevance=relevance,
            num_queries=num_queries,
            domain_model=domain_model,
            seed=derive_seed(self.base_seed, "harvest", prepared.split.seed,
                             method, entity_id, aspect),
        )

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
        evaluation = self.evaluate_methods_detailed(
            methods, num_queries_list=num_queries_list, num_splits=num_splits,
            domain_fraction=domain_fraction,
            max_test_entities=max_test_entities, aspects=aspects)
        return evaluation.normalized if normalize else evaluation.absolute

    def evaluate_methods_detailed(self, methods: Sequence[str],
                                  num_queries_list: Sequence[int] = (2, 3, 4, 5),
                                  num_splits: int = 1,
                                  domain_fraction: float = 1.0,
                                  max_test_entities: Optional[int] = None,
                                  aspects: Optional[Sequence[str]] = None
                                  ) -> EvaluationSeries:
        """Evaluate methods and return normalised *and* absolute series.

        Both views, the ``duplicate_waste`` metric and the merged fetch
        accounting are folded from one :meth:`evaluate_rows` call.
        """
        rows, fetch = self.evaluate_rows(
            methods, num_queries_list=num_queries_list, num_splits=num_splits,
            domain_fraction=domain_fraction,
            max_test_entities=max_test_entities, aspects=aspects)
        evaluation = fold_rows(rows, methods, num_queries_list)
        evaluation.fetch_statistics = fetch
        return evaluation

    def evaluate_rows(self, methods: Sequence[str],
                      num_queries_list: Sequence[int] = (2, 3, 4, 5),
                      num_splits: int = 1,
                      domain_fraction: float = 1.0,
                      max_test_entities: Optional[int] = None,
                      aspects: Optional[Sequence[str]] = None
                      ) -> Tuple[List[SessionRow], FetchStatistics]:
        """Harvest every session of the protocol and score it per budget.

        Per split, each (aspect, test entity) with relevant pages gets the
        ideal selector's session and one session per method, all harvested
        to the largest budget on the split's one harvester.  Each method
        session yields one :class:`~repro.exec.specs.SessionRow` per
        budget, in (split, aspect, entity, method, budget) order: its
        absolute metrics, the same normalised by the ideal session's, and
        its duplicate waste.  Also returns every session's fetch accounting
        merged.
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
        scorer = DuplicateWasteScorer(self.corpus, self.config,
                                      signatures=self.page_signatures)
        rows: List[SessionRow] = []
        accountings = []
        for split_index in range(num_splits):
            split = self.default_split(split_index)
            targets: List[Tuple[str, str, List[str]]] = []
            for aspect in aspect_list:
                for entity_id in list(split.test_entities)[:max_test_entities]:
                    relevant = [p.page_id for p in
                                self.corpus.relevant_pages(entity_id, aspect)]
                    if relevant:
                        targets.append((aspect, entity_id, relevant))
            # Every job of the split is resolved before the first harvest,
            # so lazily learned domain models and HR statistics are built
            # in one fixed order.
            prepared = self.prepare(split, domain_fraction=domain_fraction)
            jobs = [self.build_job(prepared, method, entity_id, aspect, max_budget)
                    for aspect, entity_id, _ in targets
                    for method in ("IDEAL", *methods)]
            harvester = self.harvester_for(prepared)
            runs = iter([harvester.harvest_job(job) for job in jobs])
            for aspect, entity_id, relevant in targets:
                ideal_run = next(runs)
                accountings.append(ideal_run.fetch_accounting)
                ideal = {k: compute_metrics(ideal_run.gathered_after(k), relevant)
                         for k in budgets}
                for method in methods:
                    run = next(runs)
                    accountings.append(run.fetch_accounting)
                    waste = scorer.waste_by_budget(run, budgets)
                    for k in budgets:
                        metrics = compute_metrics(run.gathered_after(k), relevant)
                        normalized = metrics.normalized_by(ideal[k])
                        rows.append(SessionRow(
                            split=split_index, method=method,
                            entity_id=entity_id, aspect=aspect, budget=k,
                            precision=metrics.precision,
                            recall=metrics.recall,
                            f_score=metrics.f_score,
                            normalized_precision=normalized.precision,
                            normalized_recall=normalized.recall,
                            normalized_f_score=normalized.f_score,
                            duplicate_waste=waste[k]))
        return rows, merge_run_accounting(accountings)

    # -- Efficiency (Fig. 14) --------------------------------------------------------------
    def measure_efficiency(self, methods: Sequence[str] = ("L2QP", "L2QR", "L2QBAL"),
                           num_queries: int = 3,
                           max_test_entities: int = 2,
                           aspects: Optional[Sequence[str]] = None
                           ) -> EfficiencyReport:
        """Measure per-query selection time and (simulated) fetch time.

        Runs serially in this process: the wall-clock selection times *are*
        the result here, and concurrent runs contending for the interpreter
        would inflate them.

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
        the best value and the mean F-score of every candidate.  Each
        candidate is set on this runner's config for its harvests and the
        original value is restored afterwards.
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


def fold_rows(rows: Sequence[SessionRow], methods: Sequence[str],
              budgets: Sequence[int]) -> EvaluationSeries:
    """Fold session rows into per-method series, in row order.

    Each (method, budget) point of a series is the mean of its rows'
    values, summed in row order, and 0.0 when it has no rows.  Figures and
    sweep cells both read their numbers from this fold, so the same rows
    give them bit-for-bit the same values.  ``fetch_statistics`` is left
    empty: rows carry none.
    """
    budgets = sorted(set(budgets))
    groups: Dict[Tuple[str, int], List[SessionRow]] = {
        (method, k): [] for method in methods for k in budgets}
    for row in rows:
        group = groups.get((row.method, row.budget))
        if group is not None:
            group.append(row)

    def mean(method: str, budget: int, attr: str) -> float:
        group = groups[(method, budget)]
        return sum(getattr(row, attr) for row in group) / len(group) \
            if group else 0.0

    def series(method: str, prefix: str) -> MetricSeries:
        return MetricSeries(method=method, **{
            name: {k: mean(method, k, prefix + name) for k in budgets}
            for name in ("precision", "recall", "f_score")})

    return EvaluationSeries(
        normalized={m: series(m, "normalized_") for m in methods},
        absolute={m: series(m, "") for m in methods},
        duplicate_waste={m: {k: mean(m, k, "duplicate_waste") for k in budgets}
                         for m in methods})
