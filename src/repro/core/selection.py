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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import L2QConfig
from repro.core.context import ContextTracker
from repro.core.entity_phase import EntityPhase, EntityUtilities
from repro.core.queries import Query
from repro.core.session import HarvestSession
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
    """Base for selectors that run the entity phase on every selection.

    One :class:`EntityPhase` instance is shared across a run's selections so
    its per-``(domain model, entity)`` caches survive from one harvesting
    iteration to the next; the phase is rebuilt whenever the session's type
    system or config differs from the one it was built for.
    """

    _phase: Optional[EntityPhase] = None

    def _entity_phase(self, session: HarvestSession) -> EntityPhase:
        phase = self._phase
        if (phase is None
                or phase.type_system is not session.corpus.type_system
                or phase.config is not session.config):
            phase = EntityPhase(session.corpus.type_system, session.config)
            self._phase = phase
        return phase


class UtilityOnlySelection(EntityPhaseSelection):
    """Optimise inferred precision or recall; no domain, no context (Sect. III)."""

    def __init__(self, objective: str) -> None:
        if objective not in (OBJECTIVE_PRECISION, OBJECTIVE_RECALL):
            raise ValueError("objective must be 'precision' or 'recall'")
        self.objective = objective
        self.name = "P" if objective == OBJECTIVE_PRECISION else "R"

    def select(self, session: HarvestSession) -> Optional[Query]:
        phase = self._entity_phase(session)
        utilities = phase.compute(
            entity=session.entity,
            current_pages=session.current_pages,
            relevance=session.relevance,
            domain_model=None,
            use_templates=False,
            exclude=set(session.fired_queries),
            statistics=session.candidates,
            tables=session.tables,
        )
        ranked = (utilities.ranked_by_precision()
                  if self.objective == OBJECTIVE_PRECISION
                  else utilities.ranked_by_recall())
        return first_unfired(ranked, session)


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

class TemplateSelection(EntityPhaseSelection):
    """Optimise inferred precision or recall with template-based domain awareness."""

    def __init__(self, objective: str) -> None:
        if objective not in (OBJECTIVE_PRECISION, OBJECTIVE_RECALL):
            raise ValueError("objective must be 'precision' or 'recall'")
        self.objective = objective
        self.name = "P+t" if objective == OBJECTIVE_PRECISION else "R+t"

    def select(self, session: HarvestSession) -> Optional[Query]:
        phase = self._entity_phase(session)
        utilities = phase.compute(
            entity=session.entity,
            current_pages=session.current_pages,
            relevance=session.relevance,
            domain_model=session.domain_model,
            use_templates=True,
            exclude=set(session.fired_queries),
            statistics=session.candidates,
            tables=session.tables,
        )
        ranked = (utilities.ranked_by_precision()
                  if self.objective == OBJECTIVE_PRECISION
                  else utilities.ranked_by_recall())
        return first_unfired(ranked, session)


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
        phase = self._entity_phase(session)
        utilities = phase.compute(
            entity=session.entity,
            current_pages=session.current_pages,
            relevance=session.relevance,
            domain_model=session.domain_model,
            use_templates=True,
            exclude=set(session.fired_queries),
            statistics=session.candidates,
            tables=session.tables,
        )
        penalty = (self._config or session.config).dedup_penalty
        candidates = [query for query in sorted(utilities.candidates)
                      if not session.is_fired(query)]
        best_query = self._choose(session, utilities, candidates, penalty)
        if best_query is not None:
            self._tracker.update(best_query, utilities)
        return best_query

    def _choose(self, session: HarvestSession, utilities: EntityUtilities,
                candidates: List[Query], penalty: float) -> Optional[Query]:
        """Vectorized candidate scoring: the whole set in a few array ops.

        Ranks every unfired candidate by ``(collective utility, individual
        utility)`` and returns the first lexicographic maximum — the same
        winner the per-candidate loop ``tests/oracles.py::reference_choose``
        produces (array expressions mirror the scalar ones operation for
        operation).  The individual utility breaks ties so that
        near-identical collective values (common in the first iteration)
        still prefer genuinely useful queries.
        """
        if not candidates:
            return None
        assert self._tracker is not None
        collective = self._tracker.evaluate_many(candidates, utilities)
        if penalty > 0.0:
            # Dedup awareness: discount collective utility by the expected
            # page-level redundancy of each query's postings.
            novelty = np.asarray(session.expected_novelties(candidates),
                                 dtype=np.float64)
            collective = collective.discounted(novelty, penalty)
        primary, secondary = self._score_arrays(collective, utilities, candidates)
        return candidates[first_lexicographic_argmax(primary, secondary)]

    def _score_arrays(self, collective, utilities: EntityUtilities,
                      candidates: List[Query]) -> Tuple[np.ndarray, np.ndarray]:
        """Per-candidate (primary, secondary) score arrays."""
        arrays = utilities.gather(candidates)
        if self.objective == OBJECTIVE_PRECISION:
            return collective.collective_precision, arrays.precision
        if self.objective == OBJECTIVE_RECALL:
            return collective.collective_recall, arrays.recall
        individual = exact_pow_half(np.maximum(arrays.precision, 0.0)
                                    * np.maximum(arrays.recall, 0.0))
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
