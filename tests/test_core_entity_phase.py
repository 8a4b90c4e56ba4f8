"""Tests for the entity phase (Sect. IV-C)."""

import pytest

from repro.aspects.relevance import OracleRelevance
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainPhase
from repro.core.entity_phase import EntityPhase

from tests.helpers import candidate_pool


@pytest.fixture(scope="module")
def setup(researcher_corpus):
    """Domain model plus a target entity's current pages."""
    entity_ids = researcher_corpus.entity_ids()
    domain_corpus = researcher_corpus.subset(entity_ids[:8])
    config = L2QConfig()
    model = DomainPhase(domain_corpus, config).learn("RESEARCH", OracleRelevance("RESEARCH"))
    target_id = entity_ids[-1]
    entity = researcher_corpus.get_entity(target_id)
    current_pages = researcher_corpus.pages_of(target_id)[:5]
    relevance = OracleRelevance("RESEARCH")
    phase = EntityPhase(researcher_corpus.type_system, config)
    return {
        "model": model,
        "entity": entity,
        "pages": current_pages,
        "relevance": relevance,
        "phase": phase,
        "pool": candidate_pool(entity, current_pages, config),
    }


class TestCandidateEnumeration:
    def test_candidates_exclude_seed_words(self, setup):
        candidates = setup["phase"].enumerate_candidates(
            setup["entity"], setup["pages"], setup["model"], statistics=setup["pool"])
        seed_words = set(setup["entity"].seed_query) | set(setup["entity"].name_tokens)
        for query in candidates:
            assert not seed_words & set(query)

    def test_domain_queries_expand_candidates(self, setup):
        without = setup["phase"].enumerate_candidates(
            setup["entity"], setup["pages"], None, statistics=setup["pool"])
        with_domain = setup["phase"].enumerate_candidates(
            setup["entity"], setup["pages"], setup["model"], statistics=setup["pool"])
        assert len(with_domain) >= len(without)

    def test_domain_queries_need_partial_evidence(self, setup):
        observed = set()
        for page in setup["pages"]:
            observed.update(page.token_set)
        candidates = set(setup["phase"].enumerate_candidates(
            setup["entity"], setup["pages"], setup["model"], statistics=setup["pool"]))
        from_current = set(setup["phase"].enumerate_candidates(
            setup["entity"], setup["pages"], None, statistics=setup["pool"]))
        for query in candidates - from_current:
            assert any(word in observed for word in query)

    def test_exclusion_filter(self, setup):
        all_candidates = setup["phase"].enumerate_candidates(
            setup["entity"], setup["pages"], setup["model"], statistics=setup["pool"])
        excluded = {all_candidates[0]}
        filtered = setup["phase"].enumerate_candidates(
            setup["entity"], setup["pages"], setup["model"], exclude=excluded,
            statistics=setup["pool"])
        assert all_candidates[0] not in filtered


class TestUtilityComputation:
    def test_compute_produces_all_five_vectors(self, setup):
        utilities = setup["phase"].compute(
            setup["entity"], setup["pages"], setup["relevance"],
            domain_model=setup["model"], statistics=setup["pool"])
        assert utilities.candidates
        assert utilities.precision.mode == "precision"
        assert utilities.recall.mode == "recall"
        assert utilities.recall_current.mode == "recall"
        assert utilities.recall_all.mode == "recall"
        assert utilities.recall_current_all.mode == "recall"

    def test_rankings_are_sorted(self, setup):
        utilities = setup["phase"].compute(
            setup["entity"], setup["pages"], setup["relevance"],
            domain_model=setup["model"], statistics=setup["pool"])
        by_precision = utilities.ranked_by_precision()
        values = [utilities.precision_of(q) for q in by_precision]
        assert values == sorted(values, reverse=True)
        by_recall = utilities.ranked_by_recall()
        recalls = [utilities.recall_of(q) for q in by_recall]
        assert recalls == sorted(recalls, reverse=True)

    def test_no_templates_mode_has_no_template_vertices(self, setup):
        utilities = setup["phase"].compute(
            setup["entity"], setup["pages"], setup["relevance"],
            domain_model=None, use_templates=False, statistics=setup["pool"])
        assert utilities.assembled.graph.num_templates == 0

    def test_domain_model_changes_rankings(self, setup):
        plain = setup["phase"].compute(
            setup["entity"], setup["pages"], setup["relevance"],
            domain_model=None, statistics=setup["pool"])
        adapted = setup["phase"].compute(
            setup["entity"], setup["pages"], setup["relevance"],
            domain_model=setup["model"], statistics=setup["pool"])
        shared = set(plain.candidates) & set(adapted.candidates)
        assert shared
        changed = any(abs(plain.precision_of(q) - adapted.precision_of(q)) > 1e-9
                      for q in shared)
        assert changed

    def test_topical_queries_outrank_background_for_research(self, setup):
        utilities = setup["phase"].compute(
            setup["entity"], setup["pages"], setup["relevance"],
            domain_model=setup["model"], statistics=setup["pool"])
        topics = set(setup["entity"].attribute_values("topic"))
        topical = [q for q in utilities.candidates if set(q) & topics]
        background = [q for q in utilities.candidates
                      if set(q) & {"copyright", "newsletter", "weather"}]
        if topical and background:
            best_topical = max(utilities.precision_of(q) for q in topical)
            best_background = max(utilities.precision_of(q) for q in background)
            assert best_topical > best_background
