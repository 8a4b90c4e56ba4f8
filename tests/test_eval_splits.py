"""Tests for the entity-splitting protocol."""

import pytest

from repro.eval.splits import (
    EntitySplit,
    split_entities,
    subsample_entities,
)


class TestSplitEntities:
    def test_partitions_without_overlap(self, researcher_corpus):
        split = split_entities(researcher_corpus.entity_ids(), seed=3)
        domain = set(split.domain_entities)
        validation = set(split.validation_entities)
        test = set(split.test_entities)
        assert not domain & validation
        assert not domain & test
        assert not validation & test
        assert domain | validation | test == set(researcher_corpus.entity_ids())

    def test_half_for_domain(self):
        split = split_entities([f"e{i}" for i in range(20)], seed=0)
        assert len(split.domain_entities) == 10
        assert len(split.validation_entities) == 5
        assert len(split.test_entities) == 5

    def test_deterministic_given_seed(self):
        ids = [f"e{i}" for i in range(12)]
        assert split_entities(ids, seed=4) == split_entities(ids, seed=4)
        assert split_entities(ids, seed=4) != split_entities(ids, seed=5)

    def test_custom_domain_fraction(self):
        split = split_entities([f"e{i}" for i in range(20)], seed=0, domain_fraction=0.25)
        assert len(split.domain_entities) == 5

    def test_empty_entities_rejected(self):
        with pytest.raises(ValueError):
            split_entities([], seed=0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            split_entities(["a", "b"], seed=0, domain_fraction=1.0)

    def test_overlapping_manual_split_rejected(self):
        with pytest.raises(ValueError):
            EntitySplit(domain_entities=("a",), validation_entities=("a",),
                        test_entities=("b",), seed=0)


class TestSubsample:
    def test_full_fraction_returns_everything(self):
        ids = [f"e{i}" for i in range(10)]
        assert subsample_entities(ids, 1.0) == sorted(ids)

    def test_zero_fraction_returns_nothing(self):
        assert subsample_entities([f"e{i}" for i in range(10)], 0.0) == []

    def test_small_fraction_returns_at_least_one(self):
        assert len(subsample_entities([f"e{i}" for i in range(10)], 0.01)) == 1

    def test_quarter_fraction(self):
        result = subsample_entities([f"e{i}" for i in range(20)], 0.25, seed=3)
        assert len(result) == 5

    def test_deterministic(self):
        ids = [f"e{i}" for i in range(20)]
        assert subsample_entities(ids, 0.5, seed=9) == subsample_entities(ids, 0.5, seed=9)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            subsample_entities(["a"], 1.5)
