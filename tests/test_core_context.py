"""Tests for context-aware collective utilities (Sect. V)."""

import pytest

from repro.aspects.relevance import OracleRelevance
from repro.core.config import L2QConfig
import numpy as np

from repro.core.context import CollectiveUtilityArrays, ContextTracker
from repro.core.entity_phase import EntityPhase

from tests.helpers import candidate_pool, pool_tables
from tests.oracles import CollectiveUtilities, reference_evaluate


@pytest.fixture(scope="module")
def entity_utilities(researcher_corpus):
    entity_id = researcher_corpus.entity_ids()[-1]
    entity = researcher_corpus.get_entity(entity_id)
    pages = researcher_corpus.pages_of(entity_id)[:5]
    phase = EntityPhase(researcher_corpus.type_system, L2QConfig())
    pool = candidate_pool(entity, pages)
    return phase.compute(entity, OracleRelevance("RESEARCH"), domain_model=None,
                         statistics=pool,
                         tables=pool_tables(researcher_corpus.type_system, pages, pool))


def _collective(recall, recall_all) -> CollectiveUtilityArrays:
    return CollectiveUtilityArrays(collective_recall=np.array([recall]),
                                   collective_recall_all=np.array([recall_all]))


class TestCollectiveUtilities:
    def test_balanced_is_geometric_mean(self):
        collective = _collective(0.5, 1.0)
        assert collective.collective_precision[0] == pytest.approx(0.5)
        assert collective.balanced[0] == pytest.approx((0.5 * 0.5) ** 0.5)

    def test_precision_handles_zero_denominator(self):
        assert _collective(0.2, 0.0).collective_precision[0] >= 0.0

    def test_precision_not_clamped_to_one(self):
        assert _collective(0.6, 0.3).collective_precision[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_arrays_match_the_scalar_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        recall = np.concatenate([rng.random(20), [0.0, 1.0, -0.0]])
        recall_all = np.concatenate([rng.random(20), [0.0, 1.0, 0.5]])
        novelty = np.concatenate([rng.random(20), [0.0, 1.0, 0.5]])
        arrays = CollectiveUtilityArrays(collective_recall=recall,
                                         collective_recall_all=recall_all)
        discounted = arrays.discounted(novelty, 0.7)
        for i in range(23):
            scalar = CollectiveUtilities(collective_recall=float(recall[i]),
                                         collective_recall_all=float(recall_all[i]))
            for mine, theirs in ((arrays, scalar),
                                 (discounted, scalar.discounted(float(novelty[i]), 0.7))):
                assert mine.collective_recall[i] == theirs.collective_recall
                assert mine.collective_precision[i] == theirs.collective_precision
                assert mine.balanced[i] == theirs.balanced


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
        collective = tracker.evaluate_many(entity_utilities, np.array([0]))
        recall_q = entity_utilities.recall.query_values[0]
        redundancy = entity_utilities.recall_current.query_values[0] * 0.3
        assert collective.collective_recall[0] == pytest.approx(
            min(max(0.3 + recall_q - redundancy, 0.0), 1.0))

    def test_evaluate_many_matches_the_scalar_reference_bitwise(self, entity_utilities):
        tracker = ContextTracker(seed_recall_r0=0.3)
        vertices = np.arange(40)[::-1]
        for step in range(3):
            collective = tracker.evaluate_many(entity_utilities, vertices)
            for i, vertex in enumerate(vertices.tolist()):
                scalar = reference_evaluate(tracker, entity_utilities, vertex)
                assert collective.collective_recall[i] == scalar.collective_recall
                assert collective.collective_recall_all[i] == \
                    scalar.collective_recall_all
            chosen = int(vertices[step])
            expected = reference_evaluate(tracker, entity_utilities, chosen)
            tracker.update(entity_utilities, chosen)
            assert type(tracker.context_recall) is float
            assert tracker.context_recall == expected.collective_recall
            assert tracker.context_recall_all == expected.collective_recall_all

    def test_collective_recall_never_decreases_below_context(self, entity_utilities):
        # Adding a query can only add pages: R(Phi u {q}) >= R(Phi) because
        # the redundancy term is at most R(q)'s contribution.
        tracker = ContextTracker(seed_recall_r0=0.3)
        collective = tracker.evaluate_many(entity_utilities, np.arange(20))
        assert (collective.collective_recall >= tracker.context_recall - 1e-9).all()

    def test_update_moves_context(self, entity_utilities):
        tracker = ContextTracker(seed_recall_r0=0.3)
        best = int(np.argmax(entity_utilities.recall.query_values))
        before = tracker.context_recall
        tracker.update(entity_utilities, best)
        assert tracker.context_recall >= before
        assert len(tracker) == 1

    def test_context_recall_bounded_by_one(self, entity_utilities):
        tracker = ContextTracker(seed_recall_r0=0.9)
        for vertex in range(10):
            tracker.update(entity_utilities, vertex)
        assert tracker.context_recall <= 1.0
        assert tracker.context_recall_all <= 1.0

    def test_redundant_query_adds_less_than_fresh_one(self, entity_utilities):
        """A query whose pages are already covered contributes less gain."""
        tracker = ContextTracker(seed_recall_r0=0.3)
        collective = tracker.evaluate_many(entity_utilities, np.arange(50))
        gains = dict(enumerate((collective.collective_recall
                                - tracker.context_recall).tolist()))
        redundancies = dict(enumerate(
            entity_utilities.recall_current.query_values[:50].tolist()))
        # The query with the largest redundancy should not have the largest gain
        # unless its raw recall is also the largest.
        most_redundant = max(gains, key=lambda q: redundancies[q])
        best_gain = max(gains, key=lambda q: gains[q])
        if most_redundant != best_gain:
            assert gains[most_redundant] <= gains[best_gain]
