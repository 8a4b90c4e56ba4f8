"""Tests for the entity phase (Sect. IV-C)."""

import numpy as np
import pytest

from repro.aspects.relevance import OracleRelevance
from repro.core.config import L2QConfig
from repro.core.domain_phase import DomainPhase
from repro.core.entity_phase import EntityPhase

from tests.helpers import candidate_pool, pool_tables


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
    pool = candidate_pool(entity, current_pages, config)
    return {
        "model": model,
        "entity": entity,
        "pages": current_pages,
        "relevance": relevance,
        "phase": phase,
        "pool": pool,
        "tables": pool_tables(researcher_corpus.type_system, current_pages, pool,
                              model.domain_queries),
    }


def _candidates(setup, model, exclude=None):
    """The candidates ``enumerate_candidates`` returns, as queries."""
    ids = setup["phase"].enumerate_candidates(
        setup["entity"], model, exclude, statistics=setup["pool"],
        tables=setup["tables"])
    return setup["tables"].queries_of(ids)


def _compute(setup, model, **kwargs):
    return setup["phase"].compute(setup["entity"], setup["relevance"],
                                  domain_model=model, statistics=setup["pool"],
                                  tables=setup["tables"], **kwargs)


class TestCandidateEnumeration:
    def test_candidates_exclude_seed_words(self, setup):
        candidates = _candidates(setup, setup["model"])
        seed_words = set(setup["entity"].seed_query) | set(setup["entity"].name_tokens)
        for query in candidates:
            assert not seed_words & set(query)

    def test_domain_queries_expand_candidates(self, setup):
        without = _candidates(setup, None)
        with_domain = _candidates(setup, setup["model"])
        assert len(with_domain) > len(without)
        assert with_domain[:len(without)] == without

    def test_domain_queries_need_partial_evidence(self, setup):
        observed = set()
        for page in setup["pages"]:
            observed.update(page.token_set)
        candidates = set(_candidates(setup, setup["model"]))
        from_current = set(_candidates(setup, None))
        for query in candidates - from_current:
            assert any(word in observed for word in query)

    def test_exclusion_filter(self, setup):
        all_candidates = _candidates(setup, setup["model"])
        excluded = setup["tables"].ids(all_candidates[:1] + all_candidates[-1:])
        filtered = _candidates(setup, setup["model"], exclude=excluded)
        assert filtered == all_candidates[1:-1]

    def test_candidates_are_the_query_vertices(self, setup):
        utilities = _compute(setup, setup["model"])
        assert setup["tables"].queries_of(utilities.candidates) == \
            _candidates(setup, setup["model"])
        assert utilities.assembled.queries is utilities.candidates


class TestUtilityComputation:
    def test_compute_produces_all_five_vectors(self, setup):
        utilities = _compute(setup, setup["model"])
        assert utilities.candidates.size
        assert utilities.precision.mode == "precision"
        assert utilities.recall.mode == "recall"
        assert utilities.recall_current.mode == "recall"
        assert utilities.recall_all.mode == "recall"
        assert utilities.recall_current_all.mode == "recall"

    def test_no_templates_mode_has_no_template_vertices(self, setup):
        utilities = _compute(setup, None, use_templates=False)
        assert utilities.assembled.graph.num_templates == 0

    def test_domain_model_changes_rankings(self, setup):
        plain = _compute(setup, None)
        adapted = _compute(setup, setup["model"])
        shared, in_plain, in_adapted = np.intersect1d(
            plain.candidates, adapted.candidates, return_indices=True)
        assert shared.size
        assert np.any(np.abs(plain.precision.query_values[in_plain]
                             - adapted.precision.query_values[in_adapted]) > 1e-9)

    def test_topical_queries_outrank_background_for_research(self, setup):
        utilities = _compute(setup, setup["model"])
        queries = setup["tables"].queries_of(utilities.candidates)
        precision = utilities.precision.query_values
        topics = set(setup["entity"].attribute_values("topic"))
        topical = [i for i, q in enumerate(queries) if set(q) & topics]
        background = [i for i, q in enumerate(queries)
                      if set(q) & {"copyright", "newsletter", "weather"}]
        if topical and background:
            assert precision[topical].max() > precision[background].max()
