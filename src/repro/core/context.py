"""Context-aware L2Q: collective utilities over the past queries (Sect. V).

Different queries retrieve redundant pages, so the best individual query is
not necessarily the best addition to the queries already fired.  The paper
defines the *collective recall* of the context ``Phi`` plus a candidate
``q`` by inclusion-exclusion::

    R(Phi u {q}) = R(Phi) + R(q) - Delta(Phi, q)
    Delta(Phi, q) = R^(Y~)(q) * R(Phi)

where ``R^(Y~)(q)`` is the recall of ``q`` w.r.t. the relevant pages already
gathered, and the base case ``R({q(0)}) = r0`` is the seed-query parameter.
Collective precision is the ratio of two collective recalls, the numerator
w.r.t. the target aspect ``Y`` and the denominator w.r.t. ``Y*`` (all pages
relevant)::

    P(Phi u {q})  proportional to  R(Phi u {q}) / R*(Phi u {q})

:class:`ContextTracker` maintains ``R(Phi)`` and ``R*(Phi)`` across
iterations and evaluates the collective utilities of candidates, each
named by its query vertex in the entity phase's graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.entity_phase import EntityUtilities
from repro.utils.vectorize import exact_pow_half

_EPSILON = 1e-12


@dataclass(frozen=True)
class CollectiveUtilityArrays:
    """Collective utilities of the context plus each of many candidates.

    Element ``i`` of every array corresponds to the ``i``-th candidate
    evaluated.  Each derived quantity equals, bit for bit, the same-named
    scalar property of the one-candidate reference
    ``tests/oracles.py::reference_evaluate`` returns (the square root uses
    :func:`repro.utils.vectorize.exact_pow_half`, matching Python's
    ``** 0.5``).
    """

    collective_recall: np.ndarray
    collective_recall_all: np.ndarray

    @property
    def collective_precision(self) -> np.ndarray:
        """``R(Phi u {q}) / R*(Phi u {q})`` (Eq. 27).

        The paper's derivation drops the constant prior ``P(w in Omega(Y))``,
        so this quantity is only *proportional* to the collective precision;
        it is used for ranking candidates and is therefore not clamped to 1.
        """
        return (np.maximum(self.collective_recall, 0.0)
                / np.maximum(self.collective_recall_all, _EPSILON))

    @property
    def balanced(self) -> np.ndarray:
        """Geometric mean of collective precision and recall (L2QBAL)."""
        return exact_pow_half(self.collective_precision
                              * np.maximum(self.collective_recall, 0.0))

    def discounted(self, expected_novelty: np.ndarray,
                   penalty: float) -> "CollectiveUtilityArrays":
        """Discount by page-level expected redundancy (dedup awareness).

        The paper's ``Delta(Phi, q)`` models redundancy among *relevant
        pages already gathered*; it cannot see that a query's result pages
        are near-copies of gathered content.  The discount multiplies the
        collective recall w.r.t. the target aspect by
        ``1 - penalty * (1 - expected_novelty)`` while leaving the ``Y*``
        denominator untouched, so collective precision, recall and the
        balanced objective all shrink proportionally for redundant queries.
        ``penalty = 0`` returns an identical ranking (and callers skip the
        call entirely, keeping the zero-penalty path bit-for-bit).
        """
        redundancy = np.minimum(np.maximum(1.0 - np.asarray(expected_novelty,
                                                            dtype=np.float64),
                                           0.0), 1.0)
        factor = 1.0 - penalty * redundancy
        return CollectiveUtilityArrays(
            collective_recall=self.collective_recall * factor,
            collective_recall_all=self.collective_recall_all,
        )


class ContextTracker:
    """Tracks the collective recall of the fired queries ``Phi``."""

    def __init__(self, seed_recall_r0: float = 0.3) -> None:
        if not 0.0 < seed_recall_r0 < 1.0:
            raise ValueError("seed_recall_r0 must be in (0, 1)")
        self.seed_recall_r0 = seed_recall_r0
        # R(Phi) w.r.t. Y and w.r.t. Y*: base case is the seed query q(0).
        self.context_recall = seed_recall_r0
        self.context_recall_all = seed_recall_r0
        #: How many queries have been folded into the context.
        self.num_queries = 0

    # -- Evaluation ----------------------------------------------------------
    def evaluate_many(self, utilities: EntityUtilities,
                      vertices: np.ndarray) -> CollectiveUtilityArrays:
        """Collective utilities of ``Phi u {q}`` for every candidate (Eqs. 26-27).

        ``vertices`` are the candidates' query vertices in ``utilities``'
        graph.  One gather of the five utility vectors and a handful of
        array operations.  Element ``i`` equals the scalar
        ``tests/oracles.py::reference_evaluate(self, utilities, vertices[i])``
        bit for bit (same expression order, same clamping).
        """
        collective_recall = (self.context_recall
                             + utilities.recall.query_values[vertices]
                             - utilities.recall_current.query_values[vertices]
                             * self.context_recall)
        collective_recall_all = (self.context_recall_all
                                 + utilities.recall_all.query_values[vertices]
                                 - utilities.recall_current_all.query_values[vertices]
                                 * self.context_recall_all)
        return CollectiveUtilityArrays(
            collective_recall=_clamp_array(collective_recall),
            collective_recall_all=_clamp_array(collective_recall_all),
        )

    # -- Updates ---------------------------------------------------------------
    def update(self, utilities: EntityUtilities, vertex: int) -> None:
        """Fold the selected candidate, query vertex ``vertex`` of
        ``utilities``' graph, into the context (``Phi <- Phi u {q*}``)."""
        collective = self.evaluate_many(utilities, np.array([vertex]))
        self.context_recall = float(collective.collective_recall[0])
        self.context_recall_all = float(collective.collective_recall_all[0])
        self.num_queries += 1

    def __len__(self) -> int:
        return self.num_queries


def _clamp_array(values: np.ndarray, low: float = 0.0,
                 high: float = 1.0) -> np.ndarray:
    return np.minimum(np.maximum(values, low), high)
