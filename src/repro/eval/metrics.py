"""Evaluation metrics: precision, recall, F-score and ideal-normalisation.

The paper evaluates the cumulatively gathered pages of each (entity, aspect)
pair by their actual precision and recall w.r.t. the ground truth, then
normalises both against an *ideal* solution so that results are comparable
across entities of different difficulty (Sect. VI-A, *Evaluation
methodology*).  The same normalisation factor is applied to every method for
a given entity, so relative comparisons are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set


@dataclass(frozen=True)
class HarvestMetrics:
    """Precision / recall / F-score of one gathered page set."""

    precision: float
    recall: float

    @property
    def f_score(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        if self.precision + self.recall <= 0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)

    def normalized_by(self, ideal: "HarvestMetrics",
                      cap: Optional[float] = 1.0) -> "HarvestMetrics":
        """Normalise against an ideal upper bound (component-wise ratio).

        When the ideal component is 0 the normalised value is defined as 1.0
        if this metric is also 0 (both achieved nothing achievable) and 1.0
        otherwise capped — in practice the ideal is never 0 when relevant
        pages exist.  ``cap`` bounds the ratio (the ideal is greedy, so a
        method can occasionally edge past it on one component).
        """
        precision = _safe_ratio(self.precision, ideal.precision)
        recall = _safe_ratio(self.recall, ideal.recall)
        if cap is not None:
            precision = min(precision, cap)
            recall = min(recall, cap)
        return HarvestMetrics(precision=precision, recall=recall)


def _safe_ratio(value: float, reference: float) -> float:
    if reference <= 0:
        return 1.0 if value <= 0 else 1.0
    return value / reference


def compute_metrics(gathered_page_ids: Iterable[str],
                    relevant_page_ids: Iterable[str]) -> HarvestMetrics:
    """Actual precision and recall of a gathered page set."""
    gathered: Set[str] = set(gathered_page_ids)
    relevant: Set[str] = set(relevant_page_ids)
    if not gathered:
        return HarvestMetrics(precision=0.0, recall=0.0)
    hits = len(gathered & relevant)
    precision = hits / len(gathered)
    recall = hits / len(relevant) if relevant else 0.0
    return HarvestMetrics(precision=precision, recall=recall)


@dataclass
class MetricSeries:
    """Normalised metrics of one method across query budgets (one figure line)."""

    method: str
    precision: Dict[int, float]
    recall: Dict[int, float]
    f_score: Dict[int, float]

    def budgets(self) -> List[int]:
        """Query budgets present in the series, sorted."""
        return sorted(self.precision)

    def mean_precision(self) -> float:
        """Average precision over all budgets."""
        return _mean(self.precision.values())

    def mean_recall(self) -> float:
        """Average recall over all budgets."""
        return _mean(self.recall.values())

    def mean_f_score(self) -> float:
        """Average F-score over all budgets."""
        return _mean(self.f_score.values())


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def relative_improvement(value: float, reference: float) -> float:
    """Relative improvement of ``value`` over ``reference`` (0 when reference is 0)."""
    if reference <= 0:
        return 0.0
    return (value - reference) / reference
