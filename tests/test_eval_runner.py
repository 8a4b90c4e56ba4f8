"""Tests for the experiment runner (evaluation protocol of Sect. VI-A)."""

import pytest

from repro.core.config import L2QConfig
from repro.eval.runner import DOMAIN_AWARE_METHODS, ExperimentRunner


class TestPreparedSplit:
    def test_classifiers_trained_per_aspect(self, researcher_prepared, researcher_corpus):
        report = researcher_prepared.classifier_suite.accuracy_report()
        assert [r.aspect for r in report] == researcher_corpus.aspects

    def test_relevance_functions_for_every_aspect(self, researcher_prepared,
                                                  researcher_corpus):
        assert set(researcher_prepared.relevance_by_aspect) == set(researcher_corpus.aspects)
        assert set(researcher_prepared.ground_truth_by_aspect) == set(researcher_corpus.aspects)

    def test_domain_model_cached(self, researcher_prepared):
        first = researcher_prepared.domain_model("RESEARCH")
        second = researcher_prepared.domain_model("RESEARCH")
        assert first is second

    def test_hr_statistics_cached(self, researcher_prepared):
        first = researcher_prepared.hr_statistics("RESEARCH")
        second = researcher_prepared.hr_statistics("RESEARCH")
        assert first is second

    def test_domain_corpus_is_subset_of_domain_entities(self, researcher_prepared):
        assert set(researcher_prepared.domain_corpus.entity_ids()) <= \
            set(researcher_prepared.split.domain_entities)


class TestDomainFraction:
    def test_zero_fraction_gives_empty_domain_corpus(self, researcher_runner):
        split = researcher_runner.default_split(0)
        prepared = researcher_runner.prepare(split, domain_fraction=0.0)
        assert prepared.domain_corpus.num_entities() == 0
        assert prepared.domain_model("RESEARCH").is_empty()

    def test_partial_fraction_subsamples(self, researcher_runner):
        split = researcher_runner.default_split(0)
        prepared = researcher_runner.prepare(split, domain_fraction=0.5)
        assert 0 < prepared.domain_corpus.num_entities() <= len(split.domain_entities)

    def test_classifier_still_trained_with_zero_domain_fraction(self, researcher_runner):
        split = researcher_runner.default_split(0)
        prepared = researcher_runner.prepare(split, domain_fraction=0.0)
        assert prepared.classifier_suite.accuracy_report()


class TestSelectorsAndHarvests:
    @pytest.mark.parametrize("method", ["RND", "L2QBAL", "LM", "AQ", "HR", "MQ", "IDEAL"])
    def test_create_selector(self, researcher_runner, researcher_prepared, method):
        selector = researcher_runner.create_selector(method, researcher_prepared, "RESEARCH")
        assert selector is not None

    def test_unknown_method_raises(self, researcher_runner, researcher_prepared):
        with pytest.raises(KeyError):
            researcher_runner.create_selector("BM25", researcher_prepared, "RESEARCH")

    def test_harvest_once_deterministic(self, researcher_runner, researcher_prepared):
        entity_id = researcher_prepared.split.test_entities[0]
        first = researcher_runner.harvest_once(researcher_prepared, "L2QBAL",
                                               entity_id, "RESEARCH", 2)
        second = researcher_runner.harvest_once(researcher_prepared, "L2QBAL",
                                                entity_id, "RESEARCH", 2)
        assert first.queries() == second.queries()
        assert first.gathered_after(2) == second.gathered_after(2)

    def test_domain_aware_methods_constant(self):
        assert "L2QBAL" in DOMAIN_AWARE_METHODS
        assert "LM" not in DOMAIN_AWARE_METHODS


class TestEvaluateMethods:
    def test_series_structure(self, researcher_runner, researcher_corpus):
        series = researcher_runner.evaluate_methods(
            ["RND", "MQ"], num_queries_list=(2,), num_splits=1,
            max_test_entities=2, aspects=researcher_corpus.aspects[:1])
        assert set(series) == {"RND", "MQ"}
        for method_series in series.values():
            assert method_series.budgets() == [2]
            assert 0.0 <= method_series.precision[2] <= 1.0
            assert 0.0 <= method_series.recall[2] <= 1.0
            assert 0.0 <= method_series.f_score[2] <= 1.0

    def test_requires_methods(self, researcher_runner):
        with pytest.raises(ValueError):
            researcher_runner.evaluate_methods([])

    def test_rejects_negative_budgets_before_harvesting(self, researcher_runner,
                                                        monkeypatch):
        def no_harvest(*args, **kwargs):
            raise AssertionError("harvested before validating budgets")

        monkeypatch.setattr(researcher_runner, "_run_all_splits", no_harvest)
        with pytest.raises(ValueError, match=r"budgets must be >= 0, got \[-1\]"):
            researcher_runner.evaluate_methods(("RND",),
                                               num_queries_list=(-1, 2))

    def test_unnormalised_evaluation(self, researcher_runner, researcher_corpus):
        # Budget 0 is the seed-only point, a legal budget.
        series = researcher_runner.evaluate_methods(
            ["MQ"], num_queries_list=(0, 2), max_test_entities=1,
            aspects=researcher_corpus.aspects[:1], normalize=False)
        assert series["MQ"].budgets() == [0, 2]
        assert 0.0 <= series["MQ"].precision[2] <= 1.0
        assert series["MQ"].recall[0] <= series["MQ"].recall[2]


class TestEfficiencyAndValidation:
    def test_measure_efficiency(self, researcher_runner, researcher_corpus):
        report = researcher_runner.measure_efficiency(
            methods=("L2QBAL",), num_queries=2, max_test_entities=1,
            aspects=researcher_corpus.aspects[:1])
        assert "L2QBAL" in report.selection_seconds
        assert report.selection_seconds["L2QBAL"] >= 0.0
        assert report.fetch_seconds > 0.0
        assert report.queries_measured["L2QBAL"] >= 1

    def test_measure_efficiency_profiles_into_the_global_recorder(
            self, researcher_runner, researcher_corpus):
        # One fig14-method phase per method, and exactly one selection
        # sample per measured query (the harvest loop's; none re-recorded).
        from repro import perf

        rec = perf.enable()
        try:
            report = researcher_runner.measure_efficiency(
                methods=("RND", "MQ"), num_queries=2, max_test_entities=1,
                aspects=researcher_corpus.aspects[:1])
        finally:
            perf.disable()
        assert rec.count("fig14-method") == 2
        assert {s.meta_dict()["method"]
                for s in rec.samples_for("fig14-method")} == {"RND", "MQ"}
        assert rec.count("selection") == sum(report.queries_measured.values())
        assert rec.count("fetch") == 0

    def test_validate_seed_recall_restores_config(self, researcher_corpus):
        runner = ExperimentRunner(researcher_corpus, config=L2QConfig(), base_seed=5)
        original = runner.config.seed_recall_r0
        best, scores = runner.validate_seed_recall(
            candidates=(0.2, 0.5), method="MQ", num_queries=2,
            max_validation_entities=1, aspects=researcher_corpus.aspects[:1])
        assert best in (0.2, 0.5)
        assert set(scores) == {0.2, 0.5}
        assert runner.config.seed_recall_r0 == original

    def test_validate_seed_recall_harvests_in_process(self, researcher_corpus):
        # Each candidate r0 lives in this runner's config, so the harvests
        # stay here whatever the backend: the process pool is never started.
        from repro.exec.specs import CorpusSpec

        def validate(runner):
            return runner.validate_seed_recall(
                candidates=(0.2, 0.5), method="L2QBAL", num_queries=2,
                max_validation_entities=1,
                aspects=researcher_corpus.aspects[:1])

        serial = validate(ExperimentRunner(researcher_corpus, base_seed=5))
        runner = ExperimentRunner(
            researcher_corpus, base_seed=5, workers=2, backend="process",
            corpus_spec=CorpusSpec(domain="researcher", num_entities=16,
                                   pages_per_entity=10, seed=11))
        assert validate(runner) == serial
        assert runner.backend._pool is None
