"""Tests for seeded MinHash signatures and Jaccard estimation.

The batched ``uint64`` kernel is compared with the per-shingle Python
reference (``tests/oracles.py::reference_signature``) on the inputs where
exact modular arithmetic is easiest to get wrong: shingle hashes at and
above the prime, the largest 64-bit hash and the largest coefficients.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dedup.minhash import EMPTY_COMPONENT, MinHasher, band_similarity
from repro.dedup.shingles import shingle_hashes

from tests.oracles import reference_jaccard, reference_signature

_P = (1 << 61) - 1
#: Shingle hashes around the prime and the top of the 64-bit range.
_EDGE_SHINGLES = (0, 1, _P - 1, _P, _P + 1, 2 * _P, 2 * _P + 7, 1 << 63,
                  (1 << 64) - 1)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

shingles = st.one_of(st.sampled_from(_EDGE_SHINGLES),
                     st.integers(0, (1 << 64) - 1))
shingle_sets = st.frozensets(shingles, max_size=12)
coefficients = st.tuples(
    st.one_of(st.sampled_from((1, 2, _P - 1)), st.integers(1, _P - 1)),
    st.one_of(st.sampled_from((0, 1, _P - 1)), st.integers(0, _P - 1)))


@pytest.fixture(scope="module")
def hasher():
    return MinHasher(num_hashes=128, seed=42)


def _hasher_with(pairs):
    """A hasher whose ``(a, b)`` coefficients are exactly ``pairs``."""
    hasher = MinHasher(num_hashes=len(pairs))
    hasher.coefficients = np.array(pairs, dtype=np.uint64)
    return hasher


def _rows(signatures):
    return [tuple(row) for row in signatures.tolist()]


class TestMinHasher:
    def test_same_seed_same_signature(self):
        shingles = shingle_hashes(tuple("some page content here".split()), 2)
        assert np.array_equal(MinHasher(64, seed=7).signature(shingles),
                              MinHasher(64, seed=7).signature(shingles))

    def test_different_seed_different_signature(self):
        shingles = shingle_hashes(tuple("some page content here".split()), 2)
        assert not np.array_equal(MinHasher(64, seed=7).signature(shingles),
                                  MinHasher(64, seed=8).signature(shingles))

    def test_signature_length(self, hasher):
        shingles = shingle_hashes(("a", "b", "c"), 2)
        assert len(hasher.signature(shingles)) == 128

    def test_empty_set_maps_to_sentinel(self, hasher):
        assert hasher.signature(frozenset()).tolist() == [EMPTY_COMPONENT] * 128

    def test_invalid_num_hashes(self):
        with pytest.raises(ValueError):
            MinHasher(0)


class TestSignatureKernel:
    """``MinHasher.signatures`` against the per-shingle reference."""

    @SETTINGS
    @given(st.lists(shingle_sets, max_size=6),
           st.lists(coefficients, min_size=1, max_size=6))
    @example([frozenset(), frozenset({_P}), frozenset(), frozenset({(1 << 64) - 1})],
             [(_P - 1, _P - 1), (1, 0)])
    def test_batch_matches_reference(self, sets, pairs):
        hasher = _hasher_with(pairs)
        signatures = hasher.signatures(sets)
        assert signatures.dtype == np.uint64
        assert signatures.shape == (len(sets), len(pairs))
        assert _rows(signatures) == [reference_signature(hasher, s) for s in sets]

    @pytest.mark.parametrize("shingle", _EDGE_SHINGLES)
    def test_single_edge_shingle(self, shingle):
        hasher = _hasher_with([(_P - 1, _P - 1), (_P - 1, 0), (1, _P - 1),
                               (1, 0), (2, 3)])
        shingles = frozenset({shingle})
        assert tuple(hasher.signature(shingles).tolist()) == \
            reference_signature(hasher, shingles)

    def test_largest_coefficients_on_all_edge_shingles(self):
        hasher = _hasher_with([(_P - 1, _P - 1)] * 4)
        shingles = frozenset(_EDGE_SHINGLES)
        assert tuple(hasher.signature(shingles).tolist()) == \
            reference_signature(hasher, shingles)

    def test_x_equal_to_prime_hashes_like_zero(self):
        hasher = MinHasher(16, seed=5)
        assert np.array_equal(hasher.signature(frozenset({_P})),
                              hasher.signature(frozenset({0})))

    def test_empty_batch(self, hasher):
        assert hasher.signatures([]).shape == (0, 128)

    def test_mixed_batch_equals_one_call_per_set(self, hasher):
        sets = [frozenset(), shingle_hashes(tuple("a b c d".split()), 2),
                frozenset(), frozenset({(1 << 64) - 1}),
                shingle_hashes(tuple("x y".split()), 3)]
        batch = hasher.signatures(sets)
        assert _rows(batch) == [tuple(hasher.signature(s).tolist()) for s in sets]
        assert _rows(batch) == [reference_signature(hasher, s) for s in sets]
        assert batch[0].tolist() == batch[2].tolist() == [EMPTY_COMPONENT] * 128

    def test_seeded_hasher_matches_reference_on_pages(self, hasher,
                                                      researcher_corpus):
        pages = list(researcher_corpus.iter_pages())[:24]
        sets = [shingle_hashes(page.tokens, 3) for page in pages]
        assert _rows(hasher.signatures(sets)) == \
            [reference_signature(hasher, s) for s in sets]


class TestEstimatedJaccard:
    def test_identical_sets_estimate_one(self, hasher):
        sig = hasher.signature(shingle_hashes(tuple("a b c d e".split()), 2))
        assert reference_jaccard(sig, sig) == 1.0
        assert band_similarity(sig[None], sig[None], 32)[0, 0] == 1.0

    def test_disjoint_sets_estimate_near_zero(self, hasher):
        left = hasher.signature(shingle_hashes(
            tuple(f"left{i}" for i in range(50)), 2))
        right = hasher.signature(shingle_hashes(
            tuple(f"right{i}" for i in range(50)), 2))
        assert reference_jaccard(left, right) < 0.1
        assert band_similarity(left[None], right[None], 32)[0, 0] < 0.1

    def test_estimate_tracks_true_jaccard(self, hasher):
        # Two sets overlapping in half their shingles: true J = 1/3.
        shared = [f"shared{i}" for i in range(40)]
        left_tokens = tuple(shared + [f"l{i}" for i in range(40)])
        right_tokens = tuple(shared + [f"r{i}" for i in range(40)])
        left = shingle_hashes(left_tokens, 1)
        right = shingle_hashes(right_tokens, 1)
        true_j = len(left & right) / len(left | right)
        estimate = reference_jaccard(hasher.signature(left),
                                     hasher.signature(right))
        assert estimate == pytest.approx(true_j, abs=0.15)

    def test_mismatched_lengths_rejected(self, hasher):
        with pytest.raises(ValueError):
            reference_jaccard((1, 2), (1, 2, 3))

    def test_bands_must_divide_signature_length(self, hasher):
        sig = hasher.signature(frozenset({1}))[None]
        with pytest.raises(ValueError):
            band_similarity(sig, sig, 3)
