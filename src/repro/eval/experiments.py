"""One entry point per table / figure of the paper's evaluation (Sect. VI).

Every ``run_figNN`` function regenerates the corresponding experiment:

* Fig. 9  — tested aspects, paragraph frequency and aspect-classifier accuracy;
* Fig. 10 — validation of domain and context awareness (strategy ladder);
* Fig. 11 — effect of domain size on the full approaches;
* Fig. 12 — precision and recall vs. number of queries against baselines;
* Fig. 13 — F-score of the balanced strategy against baselines;
* Fig. 14 — per-query selection time vs. fetch time.

Experiments accept an :class:`ExperimentScale`, so the same code runs at a
laptop-friendly smoke scale, the default benchmark scale, or the paper's
full scale (996 researchers / 143 cars, 10 repeated splits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.aspects.classifier import AspectAccuracy, AspectClassifierSuite
from repro.core.config import L2QConfig
from repro.corpus.corpus import Corpus
from repro.corpus.synthetic import build_corpus
from repro.eval.metrics import MetricSeries, relative_improvement
from repro.eval.runner import EfficiencyReport, ExperimentRunner
from repro.exec.backends import ExecutionBackend
from repro.exec.specs import CorpusSpec

#: Backend argument accepted by the harvesting experiments: a registered
#: backend name, a ready instance, or None for the workers-based default.
BackendArg = Union[None, str, ExecutionBackend]

DOMAINS = ("researcher", "car")

#: Methods compared in Fig. 10 (precision panel / recall panel).
FIG10_PRECISION_METHODS = ("RND", "P", "P+q", "P+t", "L2QP")
FIG10_RECALL_METHODS = ("RND", "R", "R+q", "R+t", "L2QR")
#: Methods compared in Fig. 12 and Fig. 13.
FIG12_METHODS = ("L2QP", "L2QR", "LM", "AQ", "HR", "MQ")
FIG13_METHODS = ("L2QBAL", "LM", "AQ", "HR", "MQ")
#: Domain fractions swept in Fig. 11.
FIG11_FRACTIONS = (0.0, 0.05, 0.10, 0.25, 1.0)


@dataclass(frozen=True)
class ExperimentScale:
    """How big an experiment run should be."""

    name: str
    num_entities: Dict[str, int]
    pages_per_entity: int
    num_splits: int
    max_test_entities: Optional[int]
    max_aspects: Optional[int]
    num_queries_list: Tuple[int, ...]
    corpus_seed: int = 7

    def corpus_for(self, domain: str, scenario=None) -> Corpus:
        """Build the synthetic corpus of one domain at this scale.

        ``scenario`` is an optional :class:`~repro.scenarios.ScenarioSpec`;
        when given, its perturbation pipeline and config overrides are
        applied at this scale's sizes and seed (same seed ⇒ byte-identical
        corpus, clean or perturbed).
        """
        if scenario is not None:
            return scenario.corpus_for(domain,
                                       num_entities=self.num_entities[domain],
                                       pages_per_entity=self.pages_per_entity,
                                       seed=self.corpus_seed)
        return build_corpus(domain=domain,
                            num_entities=self.num_entities[domain],
                            pages_per_entity=self.pages_per_entity,
                            seed=self.corpus_seed)

    def corpus_spec_for(self, domain: str, scenario=None) -> CorpusSpec:
        """The picklable spec a worker process rebuilds this corpus from."""
        return CorpusSpec(domain=domain,
                          num_entities=self.num_entities[domain],
                          pages_per_entity=self.pages_per_entity,
                          seed=self.corpus_seed,
                          scenario=scenario)

    def aspects_for(self, corpus: Corpus) -> List[str]:
        """The aspects evaluated at this scale (possibly a prefix)."""
        aspects = list(corpus.aspects)
        if self.max_aspects is not None:
            aspects = aspects[: self.max_aspects]
        return aspects


#: Tiny scale for unit tests and quick smoke runs.
SMOKE_SCALE = ExperimentScale(
    name="smoke",
    num_entities={"researcher": 20, "car": 16},
    pages_per_entity=10,
    num_splits=1,
    max_test_entities=2,
    max_aspects=2,
    num_queries_list=(2, 3),
)

#: Default benchmark scale: every figure regenerates in minutes on a laptop.
DEFAULT_SCALE = ExperimentScale(
    name="default",
    num_entities={"researcher": 24, "car": 20},
    pages_per_entity=16,
    num_splits=1,
    max_test_entities=3,
    max_aspects=4,
    num_queries_list=(2, 3, 4, 5),
    corpus_seed=3,
)

#: The paper's scale (for completeness; hours of compute).
PAPER_SCALE = ExperimentScale(
    name="paper",
    num_entities={"researcher": 996, "car": 143},
    pages_per_entity=50,
    num_splits=10,
    max_test_entities=None,
    max_aspects=None,
    num_queries_list=(2, 3, 4, 5),
)

_SCALES = {scale.name: scale for scale in (SMOKE_SCALE, DEFAULT_SCALE, PAPER_SCALE)}


def get_scale(name: str) -> ExperimentScale:
    """Look up a named scale preset."""
    try:
        return _SCALES[name]
    except KeyError as exc:
        raise KeyError(f"unknown scale {name!r}; available: {sorted(_SCALES)}") from exc


# ---------------------------------------------------------------------------
# Fig. 9 — aspects and classifier accuracy
# ---------------------------------------------------------------------------

@dataclass
class Fig9Result:
    """Per-domain aspect-classifier accuracy table."""

    rows_by_domain: Dict[str, List[AspectAccuracy]]

    def accuracy(self, domain: str, aspect: str) -> float:
        """Accuracy of one aspect's classifier."""
        for row in self.rows_by_domain[domain]:
            if row.aspect == aspect:
                return row.accuracy
        raise KeyError(f"aspect {aspect!r} not found for domain {domain!r}")

    def mean_accuracy(self, domain: str) -> float:
        """Mean classifier accuracy over the domain's aspects."""
        rows = self.rows_by_domain[domain]
        return sum(r.accuracy for r in rows) / len(rows) if rows else 0.0


def run_fig09(scale: ExperimentScale = DEFAULT_SCALE,
              domains: Sequence[str] = DOMAINS) -> Fig9Result:
    """Train the per-aspect classifiers and report frequency + accuracy."""
    rows: Dict[str, List[AspectAccuracy]] = {}
    for domain in domains:
        corpus = scale.corpus_for(domain)
        suite = AspectClassifierSuite.train_on_corpus(corpus)
        rows[domain] = suite.accuracy_report()
    return Fig9Result(rows_by_domain=rows)


# ---------------------------------------------------------------------------
# Fig. 10 — validation of domain and context awareness
# ---------------------------------------------------------------------------

@dataclass
class Fig10Result:
    """Normalised precision / recall of the strategy ladder per domain."""

    precision_by_domain: Dict[str, Dict[str, float]]
    recall_by_domain: Dict[str, Dict[str, float]]
    num_queries: int


def run_fig10(scale: ExperimentScale = DEFAULT_SCALE,
              domains: Sequence[str] = DOMAINS,
              config: Optional[L2QConfig] = None,
              num_queries: int = 3,
              workers: int = 1,
              backend: BackendArg = None,
              corpus_store: str = "auto") -> Fig10Result:
    """Compare {RND, P, P+q, P+t, L2QP} on precision and the recall ladder on recall."""
    precision_results: Dict[str, Dict[str, float]] = {}
    recall_results: Dict[str, Dict[str, float]] = {}
    for domain in domains:
        corpus = scale.corpus_for(domain)
        runner = ExperimentRunner(corpus, config=config, workers=workers,
                                  backend=backend,
                                  corpus_spec=scale.corpus_spec_for(domain),
                                  corpus_store=corpus_store)
        aspects = scale.aspects_for(corpus)
        methods = sorted(set(FIG10_PRECISION_METHODS) | set(FIG10_RECALL_METHODS))
        try:
            series = runner.evaluate_methods(
                methods, num_queries_list=(num_queries,),
                num_splits=scale.num_splits,
                max_test_entities=scale.max_test_entities,
                aspects=aspects,
            )
        finally:
            runner.release_store()
        precision_results[domain] = {
            m: series[m].precision[num_queries] for m in FIG10_PRECISION_METHODS
        }
        recall_results[domain] = {
            m: series[m].recall[num_queries] for m in FIG10_RECALL_METHODS
        }
    return Fig10Result(precision_by_domain=precision_results,
                       recall_by_domain=recall_results,
                       num_queries=num_queries)


# ---------------------------------------------------------------------------
# Fig. 11 — effect of domain size
# ---------------------------------------------------------------------------

@dataclass
class Fig11Result:
    """Precision of L2QP and recall of L2QR as the domain fraction grows."""

    precision_by_domain: Dict[str, Dict[float, float]]
    recall_by_domain: Dict[str, Dict[float, float]]
    fractions: Tuple[float, ...]


def run_fig11(scale: ExperimentScale = DEFAULT_SCALE,
              domains: Sequence[str] = DOMAINS,
              fractions: Sequence[float] = FIG11_FRACTIONS,
              config: Optional[L2QConfig] = None,
              num_queries: int = 3,
              workers: int = 1,
              backend: BackendArg = None,
              corpus_store: str = "auto") -> Fig11Result:
    """Sweep the fraction of domain entities available to the domain phase."""
    precision_results: Dict[str, Dict[float, float]] = {}
    recall_results: Dict[str, Dict[float, float]] = {}
    for domain in domains:
        corpus = scale.corpus_for(domain)
        runner = ExperimentRunner(corpus, config=config, workers=workers,
                                  backend=backend,
                                  corpus_spec=scale.corpus_spec_for(domain),
                                  corpus_store=corpus_store)
        aspects = scale.aspects_for(corpus)
        precision_results[domain] = {}
        recall_results[domain] = {}
        try:
            for fraction in fractions:
                series = runner.evaluate_methods(
                    ("L2QP", "L2QR"), num_queries_list=(num_queries,),
                    num_splits=scale.num_splits,
                    domain_fraction=fraction,
                    max_test_entities=scale.max_test_entities,
                    aspects=aspects,
                )
                precision_results[domain][fraction] = series["L2QP"].precision[num_queries]
                recall_results[domain][fraction] = series["L2QR"].recall[num_queries]
        finally:
            runner.release_store()
    return Fig11Result(precision_by_domain=precision_results,
                       recall_by_domain=recall_results,
                       fractions=tuple(fractions))


# ---------------------------------------------------------------------------
# Fig. 12 / Fig. 13 — comparison against the baselines
# ---------------------------------------------------------------------------

@dataclass
class ComparisonResult:
    """Per-domain metric series of several methods over query budgets."""

    series_by_domain: Dict[str, Dict[str, MetricSeries]]
    num_queries_list: Tuple[int, ...]

    def series(self, domain: str, method: str) -> MetricSeries:
        """The metric series of one method in one domain."""
        return self.series_by_domain[domain][method]

    def to_json_dict(self) -> Dict[str, object]:
        """A plain-JSON rendering (string budget keys, sorted domains).

        Used by the golden-snapshot regression test: the rendering is fully
        deterministic, so two runs at the same scale must compare equal.
        """
        return {
            "num_queries_list": list(self.num_queries_list),
            "series_by_domain": {
                domain: {
                    method: {
                        "precision": {str(k): v for k, v in sorted(s.precision.items())},
                        "recall": {str(k): v for k, v in sorted(s.recall.items())},
                        "f_score": {str(k): v for k, v in sorted(s.f_score.items())},
                    }
                    for method, s in sorted(series.items())
                }
                for domain, series in sorted(self.series_by_domain.items())
            },
        }

    def mean_over_domains(self, method: str, metric: str = "f_score") -> float:
        """Average of a method's mean metric over all domains."""
        values = []
        for domain_series in self.series_by_domain.values():
            series = domain_series[method]
            values.append({"precision": series.mean_precision(),
                           "recall": series.mean_recall(),
                           "f_score": series.mean_f_score()}[metric])
        return sum(values) / len(values) if values else 0.0


def _run_comparison(methods: Sequence[str], scale: ExperimentScale,
                    domains: Sequence[str], config: Optional[L2QConfig],
                    workers: int = 1,
                    backend: BackendArg = None,
                    corpus_store: str = "auto") -> ComparisonResult:
    series_by_domain: Dict[str, Dict[str, MetricSeries]] = {}
    for domain in domains:
        corpus = scale.corpus_for(domain)
        runner = ExperimentRunner(corpus, config=config, workers=workers,
                                  backend=backend,
                                  corpus_spec=scale.corpus_spec_for(domain),
                                  corpus_store=corpus_store)
        aspects = scale.aspects_for(corpus)
        try:
            series_by_domain[domain] = runner.evaluate_methods(
                methods, num_queries_list=scale.num_queries_list,
                num_splits=scale.num_splits,
                max_test_entities=scale.max_test_entities,
                aspects=aspects,
            )
        finally:
            runner.release_store()
    return ComparisonResult(series_by_domain=series_by_domain,
                            num_queries_list=tuple(scale.num_queries_list))


def run_fig12(scale: ExperimentScale = DEFAULT_SCALE,
              domains: Sequence[str] = DOMAINS,
              config: Optional[L2QConfig] = None,
              workers: int = 1,
              backend: BackendArg = None,
              corpus_store: str = "auto") -> ComparisonResult:
    """Precision and recall of L2QP / L2QR vs LM, AQ, HR, MQ (Fig. 12)."""
    return _run_comparison(FIG12_METHODS, scale, domains, config,
                           workers=workers, backend=backend,
                           corpus_store=corpus_store)


def run_fig13(scale: ExperimentScale = DEFAULT_SCALE,
              domains: Sequence[str] = DOMAINS,
              config: Optional[L2QConfig] = None,
              workers: int = 1,
              backend: BackendArg = None,
              corpus_store: str = "auto") -> ComparisonResult:
    """F-score of the balanced strategy L2QBAL vs the baselines (Fig. 13)."""
    return _run_comparison(FIG13_METHODS, scale, domains, config,
                           workers=workers, backend=backend,
                           corpus_store=corpus_store)


@dataclass
class HeadlineSummary:
    """The paper's headline claim: F-score gains of L2QBAL over the baselines."""

    l2qbal_f_score: float
    best_algorithmic_baseline: str
    best_algorithmic_f_score: float
    manual_f_score: float
    improvement_over_algorithmic: float
    improvement_over_manual: float


def headline_summary(result: ComparisonResult,
                     algorithmic_baselines: Sequence[str] = ("LM", "AQ", "HR"),
                     manual_baseline: str = "MQ") -> HeadlineSummary:
    """Summarise Fig. 13 into the paper's headline improvement percentages."""
    l2qbal = result.mean_over_domains("L2QBAL", "f_score")
    baseline_scores = {m: result.mean_over_domains(m, "f_score")
                       for m in algorithmic_baselines}
    best_baseline = max(baseline_scores, key=lambda m: baseline_scores[m])
    manual = result.mean_over_domains(manual_baseline, "f_score")
    return HeadlineSummary(
        l2qbal_f_score=l2qbal,
        best_algorithmic_baseline=best_baseline,
        best_algorithmic_f_score=baseline_scores[best_baseline],
        manual_f_score=manual,
        improvement_over_algorithmic=relative_improvement(l2qbal, baseline_scores[best_baseline]),
        improvement_over_manual=relative_improvement(l2qbal, manual),
    )


# ---------------------------------------------------------------------------
# Fig. 14 — efficiency
# ---------------------------------------------------------------------------

@dataclass
class Fig14Result:
    """Per-domain selection vs fetch time (seconds per query)."""

    reports_by_domain: Dict[str, EfficiencyReport]


def run_fig14(scale: ExperimentScale = DEFAULT_SCALE,
              domains: Sequence[str] = DOMAINS,
              config: Optional[L2QConfig] = None,
              methods: Sequence[str] = ("L2QP", "L2QR", "L2QBAL")) -> Fig14Result:
    """Measure the per-query selection time of the full approaches.

    Harvests run serially: the wall-clock selection times are the result.
    """
    reports: Dict[str, EfficiencyReport] = {}
    for domain in domains:
        corpus = scale.corpus_for(domain)
        runner = ExperimentRunner(corpus, config=config)
        aspects = scale.aspects_for(corpus)[:2]
        reports[domain] = runner.measure_efficiency(
            methods=methods, num_queries=3,
            max_test_entities=min(scale.max_test_entities or 2, 2),
            aspects=aspects,
        )
    return Fig14Result(reports_by_domain=reports)
