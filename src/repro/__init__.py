"""repro — a reproduction of "Learning to Query: Focused Web Page Harvesting
for Entity Aspects" (Fang, Zheng, Chang; ICDE 2016).

The package is organised as:

* :mod:`repro.corpus` — offline web-corpus substrate (documents, domains,
  knowledge base, synthetic generation);
* :mod:`repro.search` — search-engine substrate (inverted index, Dirichlet
  language model, BM25, entity-scoped engine);
* :mod:`repro.aspects` — per-aspect paragraph classifiers and relevance
  functions ``Y``;
* :mod:`repro.graph` — page/query/template reinforcement graph and the
  random-walk utility solver;
* :mod:`repro.core` — the paper's contribution: utility inference,
  domain-aware templates, context-aware collective utilities, the query
  selection strategies and the harvesting loop;
* :mod:`repro.baselines` — LM, AQ, HR, MQ and the ideal (oracle) strategy;
* :mod:`repro.eval` — evaluation metrics, splits, the experiment runner,
  one entry point per paper figure, and the scenario robustness sweep;
* :mod:`repro.scenarios` — hostile-corpus scenarios: deterministic corpus
  perturbations behind a declarative spec + registry.

Quickstart::

    from repro import build_corpus, ExperimentRunner

    corpus = build_corpus("researcher", num_entities=30, pages_per_entity=10)
    runner = ExperimentRunner(corpus)
    series = runner.evaluate_methods(["L2QBAL", "MQ"], num_queries_list=(3,),
                                     max_test_entities=2,
                                     aspects=corpus.aspects[:2])
    print(series["L2QBAL"].f_score)
"""

from repro.aspects import AspectClassifierSuite, ClassifierRelevance, OracleRelevance
from repro.core import (
    DomainModel,
    DomainPhase,
    EntityPhase,
    HarvestResult,
    Harvester,
    L2QConfig,
    make_selector,
    selector_names,
)
from repro.corpus import Corpus, CorpusConfig, CorpusGenerator, build_corpus, get_domain
from repro.eval import (
    ExperimentRunner,
    ExperimentScale,
    ScenarioSweep,
    compute_metrics,
    headline_summary,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
)
from repro.scenarios import ScenarioSpec, make_scenario, register_scenario, scenario_names
from repro.search import SearchEngine

__version__ = "1.0.0"

__all__ = [
    "AspectClassifierSuite",
    "ClassifierRelevance",
    "Corpus",
    "CorpusConfig",
    "CorpusGenerator",
    "DomainModel",
    "DomainPhase",
    "EntityPhase",
    "ExperimentRunner",
    "ExperimentScale",
    "HarvestResult",
    "Harvester",
    "L2QConfig",
    "OracleRelevance",
    "ScenarioSpec",
    "ScenarioSweep",
    "SearchEngine",
    "__version__",
    "build_corpus",
    "compute_metrics",
    "get_domain",
    "headline_summary",
    "make_scenario",
    "make_selector",
    "register_scenario",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "scenario_names",
    "selector_names",
]
