"""Tests for the near-duplicate band rule.

``tests/oracles.py::ReferenceNearDuplicateIndex`` is the LSH index with one
bucket dict per band; :func:`repro.dedup.minhash.band_similarity` must give
every answer the index gives, on hand-made pages and on random signature
sets.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dedup.minhash import MinHasher, band_similarity
from repro.dedup.shingles import shingle_hashes

from tests.oracles import ReferenceNearDuplicateIndex, reference_jaccard

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def hasher():
    return MinHasher(num_hashes=64, seed=3)


def _sig(hasher, text):
    return hasher.signature(shingle_hashes(tuple(text.split()), 2))


def _rule(indexed, probe, num_bands=32):
    """Production band similarity of ``probe`` against each indexed row."""
    return band_similarity(np.stack(indexed), probe[None], num_bands)[:, 0]


@pytest.fixture()
def index():
    return ReferenceNearDuplicateIndex(num_bands=32, similarity_threshold=0.5)


PAGE = ("the quick brown fox jumps over the lazy dog near the river bank "
        "every sunny morning before breakfast time")
NEAR_COPY = ("the quick brown fox jumps over the lazy dog near the river bank "
             "every sunny morning before lunch time")
UNRELATED = ("completely different material about database systems and "
             "distributed query processing at large scale")


class TestNearDuplicateIndex:
    def test_add_and_contains(self, index, hasher):
        assert index.add("p1", _sig(hasher, PAGE))
        assert "p1" in index
        assert len(index) == 1

    def test_re_add_is_noop(self, index, hasher):
        index.add("p1", _sig(hasher, PAGE))
        version = index.version
        assert not index.add("p1", _sig(hasher, PAGE))
        assert index.version == version

    def test_near_copy_flagged(self, index, hasher):
        index.add("p1", _sig(hasher, PAGE))
        assert index.is_near_duplicate(_sig(hasher, NEAR_COPY))
        assert index.near_duplicates(_sig(hasher, NEAR_COPY)) == ["p1"]
        assert _rule([_sig(hasher, PAGE)], _sig(hasher, NEAR_COPY))[0] >= 0.5

    def test_unrelated_not_flagged(self, index, hasher):
        index.add("p1", _sig(hasher, PAGE))
        assert not index.is_near_duplicate(_sig(hasher, UNRELATED))
        assert index.max_similarity(_sig(hasher, UNRELATED)) < 0.5
        assert _rule([_sig(hasher, PAGE)], _sig(hasher, UNRELATED))[0] < 0.5

    def test_exact_copy_max_similarity_one(self, index, hasher):
        index.add("p1", _sig(hasher, PAGE))
        assert index.max_similarity(_sig(hasher, PAGE)) == 1.0
        assert _rule([_sig(hasher, PAGE)], _sig(hasher, PAGE))[0] == 1.0

    def test_empty_index_similarity_zero(self, index, hasher):
        assert index.max_similarity(_sig(hasher, PAGE)) == 0.0
        assert not index.is_near_duplicate(_sig(hasher, PAGE))
        empty = np.empty((0, 64), dtype=np.uint64)
        assert band_similarity(empty, _sig(hasher, PAGE)[None], 32).shape == (0, 1)

    def test_insertion_order_independent(self, hasher):
        texts = {"a": PAGE, "b": NEAR_COPY, "c": UNRELATED}
        forward = ReferenceNearDuplicateIndex(num_bands=32, similarity_threshold=0.5)
        backward = ReferenceNearDuplicateIndex(num_bands=32, similarity_threshold=0.5)
        for page_id in sorted(texts):
            forward.add(page_id, _sig(hasher, texts[page_id]))
        for page_id in sorted(texts, reverse=True):
            backward.add(page_id, _sig(hasher, texts[page_id]))
        probe = _sig(hasher, PAGE)
        assert forward.max_similarity(probe) == backward.max_similarity(probe)
        assert forward.near_duplicates(probe) == backward.near_duplicates(probe)
        rows = [_sig(hasher, texts[page_id]) for page_id in sorted(texts)]
        assert _rule(rows, probe).tolist() == _rule(rows[::-1], probe)[::-1].tolist()

    def test_version_bumps_on_insert(self, index, hasher):
        assert index.version == 0
        index.add("p1", _sig(hasher, PAGE))
        index.add("p2", _sig(hasher, UNRELATED))
        assert index.version == 2

    def test_signature_length_must_divide_into_bands(self, index):
        with pytest.raises(ValueError):
            index.add("bad", (1, 2, 3))
        row = np.arange(3, dtype=np.uint64)[None]
        with pytest.raises(ValueError):
            band_similarity(row, row, 32)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ReferenceNearDuplicateIndex(num_bands=0)
        with pytest.raises(ValueError):
            ReferenceNearDuplicateIndex(similarity_threshold=0.0)
        with pytest.raises(ValueError):
            ReferenceNearDuplicateIndex(similarity_threshold=1.5)


def _related_signatures(seed, count, num_hashes=64):
    """``count`` signatures, each a base signature with a random share of
    its components redrawn, so pairwise agreement spans 0 to 1."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 1 << 61, size=num_hashes, dtype=np.uint64)
    rows = []
    for _ in range(count):
        row = base.copy()
        redrawn = rng.random(num_hashes) < rng.random()
        row[redrawn] = rng.integers(0, 4, size=int(redrawn.sum()), dtype=np.uint64)
        rows.append(row)
    return np.stack(rows)


class TestBandRule:
    """``band_similarity`` answers every query of the reference index."""

    @SETTINGS
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10),
           st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
           st.sampled_from([0.05, 0.25, 0.5, 0.75, 1.0]))
    def test_rule_matches_reference_index(self, seed, count, num_bands,
                                          threshold):
        signatures = _related_signatures(seed, count)
        similarity = band_similarity(signatures, signatures, num_bands)
        index = ReferenceNearDuplicateIndex(num_bands=num_bands,
                                            similarity_threshold=threshold)
        for j, signature in enumerate(signatures):
            earlier = similarity[:j, j]
            assert index.max_similarity(signature) == \
                (float(earlier.max()) if j else 0.0)
            assert index.near_duplicates(signature) == \
                sorted(f"p{i}" for i in range(j) if earlier[i] >= threshold)
            assert index.is_near_duplicate(signature) == \
                bool((earlier >= threshold).any())
            index.add(f"p{j}", signature)
        assert np.array_equal(similarity, similarity.T)

    def test_half_agreement_without_a_band_is_not_a_near_duplicate(self):
        # One agreeing row in each of 32 two-row bands: 32 of 64 components
        # agree, which meets the 0.5 threshold, but no bucket is shared.
        left = np.arange(64, dtype=np.uint64)
        right = left.copy()
        right[1::2] += np.uint64(1000)
        assert reference_jaccard(left, right) == 0.5  # brute force: "duplicate"
        index = ReferenceNearDuplicateIndex(num_bands=32, similarity_threshold=0.5)
        index.add("left", left)
        assert not index.is_near_duplicate(right)
        assert index.max_similarity(right) == 0.0
        assert band_similarity(left[None], right[None], 32)[0, 0] == 0.0
        # One fully agreeing band turns the same 0.5 into a near-duplicate.
        right[1] = left[1]
        right[2] += np.uint64(1)
        assert index.is_near_duplicate(right)
        assert band_similarity(left[None], right[None], 32)[0, 0] == 0.5
