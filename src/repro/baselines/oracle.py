"""The ideal (oracle) strategy used as the normalisation upper bound.

Sect. VI-A: *"We then select queries to maximize the product of their actual
coverage and precision, which can be obtained by feeding each candidate
query to the search engine.  Thus, it is clearly infeasible in real
applications, and only acts as a performance upper bound for
normalization."*

The ideal selector therefore (a) enumerates candidates from the *entire*
page universe of the entity, (b) fires every candidate against the engine
without cost accounting, and (c) greedily picks the candidate that maximises
``precision x recall`` of the cumulative gathered set, judged with the
ground-truth relevance function.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.aspects.relevance import RelevanceFunction
from repro.core.queries import Query, QueryEnumerator
from repro.core.selection import QuerySelector
from repro.core.session import HarvestSession


class IdealSelection(QuerySelector):
    """Greedy oracle maximising actual coverage x precision per iteration."""

    name = "IDEAL"

    def __init__(self, ground_truth: RelevanceFunction,
                 max_candidates: int = 3000) -> None:
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self.ground_truth = ground_truth
        self.max_candidates = max_candidates
        #: The entity's candidates once :meth:`prepare` has run.
        self._candidates: Optional[List[Query]] = None
        self._retrieved_cache: Dict[Query, Tuple[str, ...]] = {}
        self._relevant_ids: Set[str] = set()

    # -- Lifecycle ------------------------------------------------------------
    def prepare(self, session: HarvestSession) -> None:
        universe = session.corpus.pages_of(session.entity.entity_id)
        self._relevant_ids = {p.page_id for p in universe if self.ground_truth(p) == 1}
        enumerator = QueryEnumerator(
            max_length=session.config.max_query_length,
            min_word_length=session.config.min_query_word_length,
            exclude_words=session.entity.excluded_words(),
        )
        statistics = enumerator.enumerate_from_pages(universe)
        ranked = sorted(statistics.queries(),
                        key=lambda q: (-statistics.page_frequency(q), q))
        self._candidates = ranked[: self.max_candidates]
        self._retrieved_cache = {}

    # -- Selection -----------------------------------------------------------------
    def select(self, session: HarvestSession) -> Optional[Query]:
        if self._candidates is None:
            self.prepare(session)
        if not self._relevant_ids:
            return None

        gathered = set(session.current_page_ids())
        best_query: Optional[Query] = None
        best_score = float("-inf")
        for query in self._candidates:
            if session.is_fired(query):
                continue
            retrieved = self._retrieve(session, query)
            if not retrieved:
                continue
            union = gathered | set(retrieved)
            relevant_covered = len(union & self._relevant_ids)
            precision = relevant_covered / len(union) if union else 0.0
            coverage = relevant_covered / len(self._relevant_ids)
            score = precision * coverage
            if score > best_score:
                best_score = score
                best_query = query
        return best_query

    def _retrieve(self, session: HarvestSession, query: Query) -> Tuple[str, ...]:
        cached = self._retrieved_cache.get(query)
        if cached is None:
            cached = tuple(session.engine.retrievable_pages(
                session.entity.entity_id, list(query)))
            self._retrieved_cache[query] = cached
        return cached
