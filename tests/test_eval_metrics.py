"""Tests for evaluation metrics and ideal-normalisation."""

import pytest

from repro.eval.metrics import (
    HarvestMetrics,
    MetricSeries,
    compute_metrics,
    relative_improvement,
)


class TestComputeMetrics:
    def test_perfect_harvest(self):
        metrics = compute_metrics(["a", "b"], ["a", "b"])
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.f_score == 1.0

    def test_partial_harvest(self):
        metrics = compute_metrics(["a", "b", "c", "d"], ["a", "b", "x"])
        assert metrics.precision == pytest.approx(0.5)
        assert metrics.recall == pytest.approx(2 / 3)
        assert metrics.f_score == pytest.approx(2 * 0.5 * (2 / 3) / (0.5 + 2 / 3))

    def test_empty_gathered(self):
        metrics = compute_metrics([], ["a"])
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f_score == 0.0

    def test_no_relevant_pages(self):
        metrics = compute_metrics(["a"], [])
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0

    def test_duplicates_ignored(self):
        metrics = compute_metrics(["a", "a", "b"], ["a"])
        assert metrics.precision == pytest.approx(0.5)


class TestNormalisation:
    def test_ratio_against_ideal(self):
        metrics = HarvestMetrics(precision=0.4, recall=0.3)
        ideal = HarvestMetrics(precision=0.8, recall=0.6)
        normalised = metrics.normalized_by(ideal)
        assert normalised.precision == pytest.approx(0.5)
        assert normalised.recall == pytest.approx(0.5)

    def test_capped_at_one_by_default(self):
        metrics = HarvestMetrics(precision=0.9, recall=0.9)
        ideal = HarvestMetrics(precision=0.6, recall=0.6)
        normalised = metrics.normalized_by(ideal)
        assert normalised.precision == 1.0

    def test_cap_disabled(self):
        metrics = HarvestMetrics(precision=0.9, recall=0.9)
        ideal = HarvestMetrics(precision=0.6, recall=0.6)
        normalised = metrics.normalized_by(ideal, cap=None)
        assert normalised.precision == pytest.approx(1.5)

    def test_zero_ideal_defined(self):
        metrics = HarvestMetrics(precision=0.0, recall=0.0)
        ideal = HarvestMetrics(precision=0.0, recall=0.0)
        normalised = metrics.normalized_by(ideal)
        assert normalised.precision == 1.0
        assert normalised.recall == 1.0


class TestMetricSeries:
    def _series(self):
        return MetricSeries(
            method="L2QBAL",
            precision={2: 0.5, 3: 0.6},
            recall={2: 0.7, 3: 0.8},
            f_score={2: 0.58, 3: 0.68},
        )

    def test_budgets_sorted(self):
        assert self._series().budgets() == [2, 3]

    def test_means(self):
        series = self._series()
        assert series.mean_precision() == pytest.approx(0.55)
        assert series.mean_recall() == pytest.approx(0.75)
        assert series.mean_f_score() == pytest.approx(0.63)


class TestRelativeImprovement:
    def test_positive_improvement(self):
        assert relative_improvement(0.58, 0.5) == pytest.approx(0.16)

    def test_zero_reference(self):
        assert relative_improvement(0.5, 0.0) == 0.0
