"""Query-selection strategies.

This module implements the strategy ladder the paper evaluates in Sect. VI-B
(Fig. 10) and the full approaches of Sect. VI-C:

===========  =================================================================
``RND``      Random candidate query (reference point).
``P`` / ``R``        Utility inference only (Sect. III) — no domain, no context.
``P+q`` / ``R+q``    Directly reuse the best domain *queries* (shows entity variation).
``P+t`` / ``R+t``    Domain-aware through *templates* (Sect. IV) — no context.
``L2QP`` / ``L2QR``  Full approach: domain + context aware (Sect. V).
``L2QBAL``   Geometric mean of collective precision and recall (Sect. VI-C).
===========  =================================================================

Every strategy implements :class:`QuerySelector`; instances are stateful per
harvesting run, so callers should create a fresh selector per harvest (the
factory :func:`make_selector` does exactly that).

The strategies that run the entity phase choose on ids of the entity's
:class:`~repro.core.utility.GraphTables`; ids sort as queries do, so "ties
lexicographic" is "ties by id", and the chosen id becomes a query only when
it is returned for firing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import L2QConfig
from repro.core.context import CollectiveUtilityArrays, ContextTracker
from repro.core.entity_phase import EntityPhase, EntityUtilities
from repro.core.queries import Query
from repro.core.session import HarvestSession
from repro.core.utility import GraphTables
from repro.utils.vectorize import exact_pow_half, first_lexicographic_argmax

OBJECTIVE_PRECISION = "precision"
OBJECTIVE_RECALL = "recall"
OBJECTIVE_BALANCED = "balanced"


class QuerySelector(ABC):
    """Interface of a query-selection strategy."""

    #: Human-readable strategy name (used in reports).
    name: str = "selector"

    def prepare(self, session: HarvestSession) -> None:
        """Called once before the first selection of a harvesting run."""

    @abstractmethod
    def select(self, session: HarvestSession) -> Optional[Query]:
        """Return the next query to fire, or ``None`` to stop early."""

    def observe(self, session: HarvestSession, query: Query,
                new_pages: Sequence) -> None:
        """Called after the selected query has been fired."""


def first_unfired(ranked: Sequence[Query], session: HarvestSession) -> Optional[Query]:
    """First query in ``ranked`` that has not been fired yet."""
    for query in ranked:
        if not session.is_fired(query):
            return query
    return None


def best_ranked(values: np.ndarray, ids: np.ndarray) -> int:
    """Position of the greatest of ``values``, the smallest of ``ids``
    among equal values: the first of the ranking by ``(-value, id)``."""
    tied = np.flatnonzero(values == values.max())
    return int(tied[np.argmin(ids[tied])])


# ---------------------------------------------------------------------------
# RND
# ---------------------------------------------------------------------------

class RandomSelection(QuerySelector):
    """Uniformly random choice among the current candidate queries."""

    name = "RND"

    def select(self, session: HarvestSession) -> Optional[Query]:
        candidates = session.candidates.unfired_sorted_queries(session.fired_queries)
        if not candidates:
            return None
        return session.rng.choice(candidates)


# ---------------------------------------------------------------------------
# P / R — utility inference without domain or context
# ---------------------------------------------------------------------------

class EntityPhaseSelection(QuerySelector):
    """Base for selectors that run the entity phase on every selection."""

    def _utilities(self, session: HarvestSession, use_domain: bool
                   ) -> Tuple[GraphTables, EntityUtilities]:
        """The entity's tables and one entity-phase run over its unfired
        candidates, with the session's domain model if ``use_domain``."""
        model = session.domain_model if use_domain else None
        tables = session.tables(model.domain_queries if model is not None else ())
        utilities = EntityPhase(session.corpus.type_system, session.config).compute(
            entity=session.entity,
            relevance=session.relevance,
            domain_model=model,
            use_templates=use_domain,
            exclude=session.fired_ids(tables),
            statistics=session.candidates,
            tables=tables,
        )
        return tables, utilities


class UtilityOnlySelection(EntityPhaseSelection):
    """Optimise inferred precision or recall; no domain, no context (Sect. III)."""

    #: Whether the entity phase runs with the domain model's templates.
    use_domain = False

    def __init__(self, objective: str) -> None:
        if objective not in (OBJECTIVE_PRECISION, OBJECTIVE_RECALL):
            raise ValueError("objective must be 'precision' or 'recall'")
        self.objective = objective
        self.name = "P" if objective == OBJECTIVE_PRECISION else "R"

    def select(self, session: HarvestSession) -> Optional[Query]:
        tables, utilities = self._utilities(session, self.use_domain)
        if not utilities.candidates.size:
            return None
        vector = (utilities.precision if self.objective == OBJECTIVE_PRECISION
                  else utilities.recall)
        best = best_ranked(vector.query_values, utilities.candidates)
        return tables.queries[utilities.candidates[best]]


# ---------------------------------------------------------------------------
# P+q / R+q — direct transfer of domain queries (entity-variation ablation)
# ---------------------------------------------------------------------------

class DomainQuerySelection(QuerySelector):
    """Fire the domain queries with the highest domain-phase utility, verbatim."""

    def __init__(self, objective: str) -> None:
        if objective not in (OBJECTIVE_PRECISION, OBJECTIVE_RECALL):
            raise ValueError("objective must be 'precision' or 'recall'")
        self.objective = objective
        self.name = "P+q" if objective == OBJECTIVE_PRECISION else "R+q"

    def select(self, session: HarvestSession) -> Optional[Query]:
        model = session.domain_model
        if model is None or model.is_empty():
            return None
        ranked = (model.best_queries_by_precision()
                  if self.objective == OBJECTIVE_PRECISION
                  else model.best_queries_by_recall())
        excluded_words = session.entity.excluded_words()
        usable = [q for q in ranked if not any(w in excluded_words for w in q)]
        return first_unfired(usable, session)


# ---------------------------------------------------------------------------
# P+t / R+t — domain-aware via templates, without context awareness
# ---------------------------------------------------------------------------

class TemplateSelection(UtilityOnlySelection):
    """Optimise inferred precision or recall with template-based domain awareness."""

    use_domain = True

    def __init__(self, objective: str) -> None:
        super().__init__(objective)
        self.name = "P+t" if objective == OBJECTIVE_PRECISION else "R+t"


# ---------------------------------------------------------------------------
# L2QP / L2QR / L2QBAL — full approach (domain + context aware)
# ---------------------------------------------------------------------------

class ContextAwareSelection(EntityPhaseSelection):
    """The full L2Q approach: collective utilities over the query context."""

    def __init__(self, objective: str, config: Optional[L2QConfig] = None) -> None:
        if objective not in (OBJECTIVE_PRECISION, OBJECTIVE_RECALL, OBJECTIVE_BALANCED):
            raise ValueError(
                "objective must be 'precision', 'recall' or 'balanced'")
        self.objective = objective
        self.name = {"precision": "L2QP", "recall": "L2QR", "balanced": "L2QBAL"}[objective]
        self._config = config
        self._tracker: Optional[ContextTracker] = None

    def prepare(self, session: HarvestSession) -> None:
        config = self._config or session.config
        self._tracker = ContextTracker(seed_recall_r0=config.seed_recall_r0)

    def select(self, session: HarvestSession) -> Optional[Query]:
        if self._tracker is None:
            self.prepare(session)
        assert self._tracker is not None
        tables, utilities = self._utilities(session, use_domain=True)
        penalty = (self._config or session.config).dedup_penalty
        best = self._choose(session, tables, utilities, penalty)
        if best is None:
            return None
        self._tracker.update(utilities, best)
        return tables.queries[utilities.candidates[best]]

    def _choose(self, session: HarvestSession, tables: GraphTables,
                utilities: EntityUtilities, penalty: float) -> Optional[int]:
        """Vectorized candidate scoring: the whole set in a few array ops.

        Ranks every candidate (the entity phase left the fired ones out) by
        ``(collective utility, individual utility)`` and returns the query
        vertex of the first lexicographic maximum in query order — the same
        winner the per-candidate loop ``tests/oracles.py::reference_choose``
        produces (array expressions mirror the scalar ones operation for
        operation).  The individual utility breaks ties so that
        near-identical collective values (common in the first iteration)
        still prefer genuinely useful queries.
        """
        if not utilities.candidates.size:
            return None
        assert self._tracker is not None
        # Query order is id order.
        vertices = np.argsort(utilities.candidates)
        collective = self._tracker.evaluate_many(utilities, vertices)
        if penalty > 0.0:
            # Dedup awareness: discount collective utility by the expected
            # page-level redundancy of each query's postings.
            novelty = np.asarray(session.expected_novelties(
                tables.queries_of(utilities.candidates[vertices])), dtype=np.float64)
            collective = collective.discounted(novelty, penalty)
        primary, secondary = self._score_arrays(collective, utilities, vertices)
        return int(vertices[first_lexicographic_argmax(primary, secondary)])

    def _score_arrays(self, collective: CollectiveUtilityArrays,
                      utilities: EntityUtilities,
                      vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-candidate (primary, secondary) score arrays."""
        precision = utilities.precision.query_values[vertices]
        recall = utilities.recall.query_values[vertices]
        if self.objective == OBJECTIVE_PRECISION:
            return collective.collective_precision, precision
        if self.objective == OBJECTIVE_RECALL:
            return collective.collective_recall, recall
        individual = exact_pow_half(np.maximum(precision, 0.0)
                                    * np.maximum(recall, 0.0))
        return collective.balanced, individual


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_FACTORY: Dict[str, Callable[[L2QConfig], QuerySelector]] = {
    "RND": lambda config: RandomSelection(),
    "P": lambda config: UtilityOnlySelection(OBJECTIVE_PRECISION),
    "R": lambda config: UtilityOnlySelection(OBJECTIVE_RECALL),
    "P+q": lambda config: DomainQuerySelection(OBJECTIVE_PRECISION),
    "R+q": lambda config: DomainQuerySelection(OBJECTIVE_RECALL),
    "P+t": lambda config: TemplateSelection(OBJECTIVE_PRECISION),
    "R+t": lambda config: TemplateSelection(OBJECTIVE_RECALL),
    "L2QP": lambda config: ContextAwareSelection(OBJECTIVE_PRECISION, config),
    "L2QR": lambda config: ContextAwareSelection(OBJECTIVE_RECALL, config),
    "L2QBAL": lambda config: ContextAwareSelection(OBJECTIVE_BALANCED, config),
}


def selector_names() -> List[str]:
    """Names of all built-in L2Q strategies."""
    return sorted(_FACTORY)


def make_selector(name: str, config: Optional[L2QConfig] = None) -> QuerySelector:
    """Create a fresh selector instance by strategy name."""
    try:
        factory = _FACTORY[name]
    except KeyError as exc:
        raise KeyError(f"unknown selector {name!r}; available: {selector_names()}") from exc
    return factory(config if config is not None else L2QConfig())
