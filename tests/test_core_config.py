"""Tests for the L2Q configuration."""

import pytest

from repro.core.config import L2QConfig


class TestDefaults:
    def test_defaults_match_paper(self):
        config = L2QConfig()
        assert config.alpha == 0.15
        assert config.adaptation_lambda == 10.0
        assert config.max_query_length == 3
        assert config.top_k == 5
        assert config.num_queries == 3

    def test_defaults_validate(self):
        L2QConfig().validate()


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0),
        ("alpha", 1.0),
        ("max_query_length", 0),
        ("adaptation_lambda", 0.0),
        ("seed_recall_r0", 0.0),
        ("seed_recall_r0", 1.0),
        ("top_k", 0),
        ("num_queries", -1),
        ("domain_entity_support_fraction", 1.5),
        ("max_entity_candidates", 0),
        ("max_entity_candidates", -1),
        ("max_domain_queries", 0),
        ("max_domain_queries", -1),
    ])
    def test_invalid_values(self, field, value):
        config = L2QConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()


class TestDomainSupportThreshold:
    def test_scales_with_domain_size(self):
        config = L2QConfig(domain_entity_support_fraction=0.1,
                           min_domain_entity_support=2)
        assert config.domain_support_threshold(500) == 50
        assert config.domain_support_threshold(100) == 10

    def test_floor_applies_for_small_domains(self):
        config = L2QConfig(domain_entity_support_fraction=0.1,
                           min_domain_entity_support=2)
        assert config.domain_support_threshold(5) == 2
        assert config.domain_support_threshold(0) == 2
