"""Ablation bench: sensitivity to the L2Q hyper-parameters.

The paper fixes ``alpha = 0.15``, ``lambda = 10`` and cross-validates the
seed-recall ``r0`` (Sect. VI-A).  This bench sweeps each parameter around
its default on a small corpus, reports the resulting F-score of L2QBAL and
asserts that each default is within 0.15 F of the best value swept.  Runs
at smoke-like scale regardless of ``REPRO_BENCH_SCALE`` to stay cheap.
"""

from benchmarks.helpers import save_result

from repro.core.config import L2QConfig
from repro.corpus.synthetic import build_corpus
from repro.eval.runner import ExperimentRunner

SWEEPS = {
    "alpha": (0.05, 0.15, 0.5),
    "adaptation_lambda": (1.0, 10.0, 50.0),
    "seed_recall_r0": (0.1, 0.3, 0.7),
}


def _evaluate(config: L2QConfig) -> float:
    corpus = build_corpus("researcher", num_entities=20, pages_per_entity=10, seed=7)
    runner = ExperimentRunner(corpus, config=config, base_seed=41)
    series = runner.evaluate_methods(
        ["L2QBAL"], num_queries_list=(3,), num_splits=1,
        max_test_entities=2, aspects=corpus.aspects[:2])
    return series["L2QBAL"].f_score[3]


def _run_sweeps():
    rows = {}
    for parameter, values in SWEEPS.items():
        rows[parameter] = {}
        for value in values:
            config = L2QConfig(**{parameter: value})
            rows[parameter][value] = _evaluate(config)
    return rows


def test_ablation_hyperparameters(benchmark, results_dir):
    rows = benchmark.pedantic(_run_sweeps, rounds=1, iterations=1)

    lines = ["Parameter sensitivity of L2QBAL (normalised F-score, 3 queries)"]
    for parameter, values in rows.items():
        for value, f_score in values.items():
            lines.append(f"  {parameter:20s} = {value:<6g} -> F = {f_score:.3f}")
    save_result(results_dir, "ablation_parameters", "\n".join(lines))

    for parameter, values in rows.items():
        for value, f_score in values.items():
            assert 0.0 <= f_score <= 1.0
        # The default setting should be competitive within each sweep: no
        # more than 15 points of F-score behind the best value swept.
        default_value = {"alpha": 0.15, "adaptation_lambda": 10.0,
                         "seed_recall_r0": 0.3}[parameter]
        assert values[default_value] >= max(values.values()) - 0.15
