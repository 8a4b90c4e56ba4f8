"""Tests for context-aware collective utilities (Sect. V)."""

import pytest

from repro.aspects.relevance import OracleRelevance
from repro.core.config import L2QConfig
from repro.core.context import CollectiveUtilities, ContextTracker
from repro.core.entity_phase import EntityPhase

from tests.helpers import candidate_pool


@pytest.fixture(scope="module")
def entity_utilities(researcher_corpus):
    entity_id = researcher_corpus.entity_ids()[-1]
    entity = researcher_corpus.get_entity(entity_id)
    pages = researcher_corpus.pages_of(entity_id)[:5]
    phase = EntityPhase(researcher_corpus.type_system, L2QConfig())
    return phase.compute(entity, pages, OracleRelevance("RESEARCH"), domain_model=None,
                         statistics=candidate_pool(entity, pages))


class TestCollectiveUtilities:
    def test_balanced_is_geometric_mean(self):
        collective = CollectiveUtilities(query=("q",), collective_recall=0.5,
                                         collective_recall_all=1.0)
        assert collective.collective_precision == pytest.approx(0.5)
        assert collective.balanced == pytest.approx((0.5 * 0.5) ** 0.5)

    def test_precision_handles_zero_denominator(self):
        collective = CollectiveUtilities(query=("q",), collective_recall=0.2,
                                         collective_recall_all=0.0)
        assert collective.collective_precision >= 0.0

    def test_precision_not_clamped_to_one(self):
        collective = CollectiveUtilities(query=("q",), collective_recall=0.6,
                                         collective_recall_all=0.3)
        assert collective.collective_precision == pytest.approx(2.0)


class TestContextTracker:
    def test_invalid_r0(self):
        with pytest.raises(ValueError):
            ContextTracker(seed_recall_r0=0.0)
        with pytest.raises(ValueError):
            ContextTracker(seed_recall_r0=1.0)

    def test_initial_context_is_seed_recall(self):
        tracker = ContextTracker(seed_recall_r0=0.3)
        assert tracker.context_recall == pytest.approx(0.3)
        assert tracker.context_recall_all == pytest.approx(0.3)
        assert len(tracker) == 0

    def test_inclusion_exclusion_formula(self, entity_utilities):
        tracker = ContextTracker(seed_recall_r0=0.3)
        query = entity_utilities.candidates[0]
        collective = tracker.evaluate(query, entity_utilities)
        recall_q = entity_utilities.recall.query(query)
        redundancy = entity_utilities.recall_current.query(query) * 0.3
        assert collective.collective_recall == pytest.approx(
            min(max(0.3 + recall_q - redundancy, 0.0), 1.0))

    def test_collective_recall_never_decreases_below_context(self, entity_utilities):
        # Adding a query can only add pages: R(Phi u {q}) >= R(Phi) because
        # the redundancy term is at most R(q)'s contribution.
        tracker = ContextTracker(seed_recall_r0=0.3)
        for query in entity_utilities.candidates[:20]:
            collective = tracker.evaluate(query, entity_utilities)
            assert collective.collective_recall >= tracker.context_recall - 1e-9

    def test_update_moves_context(self, entity_utilities):
        tracker = ContextTracker(seed_recall_r0=0.3)
        query = max(entity_utilities.candidates,
                    key=lambda q: entity_utilities.recall.query(q))
        before = tracker.context_recall
        tracker.update(query, entity_utilities)
        assert tracker.context_recall >= before
        assert tracker.past_queries == [query]
        assert len(tracker) == 1

    def test_context_recall_bounded_by_one(self, entity_utilities):
        tracker = ContextTracker(seed_recall_r0=0.9)
        for query in entity_utilities.candidates[:10]:
            tracker.update(query, entity_utilities)
        assert tracker.context_recall <= 1.0
        assert tracker.context_recall_all <= 1.0

    def test_redundant_query_adds_less_than_fresh_one(self, entity_utilities):
        """A query whose pages are already covered contributes less gain."""
        tracker = ContextTracker(seed_recall_r0=0.3)
        candidates = entity_utilities.candidates
        gains = {}
        for query in candidates[:50]:
            collective = tracker.evaluate(query, entity_utilities)
            gains[query] = collective.collective_recall - tracker.context_recall
        redundancies = {q: entity_utilities.recall_current.query(q) for q in gains}
        # The query with the largest redundancy should not have the largest gain
        # unless its raw recall is also the largest.
        most_redundant = max(gains, key=lambda q: redundancies[q])
        best_gain = max(gains, key=lambda q: gains[q])
        if most_redundant != best_gain:
            assert gains[most_redundant] <= gains[best_gain]

    def test_separate_seed_recall_for_all_pages(self):
        tracker = ContextTracker(seed_recall_r0=0.3, seed_recall_all=0.5)
        assert tracker.context_recall == pytest.approx(0.3)
        assert tracker.context_recall_all == pytest.approx(0.5)
