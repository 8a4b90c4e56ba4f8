"""Seeded MinHash signatures and the band rule over them.

A MinHash signature applies ``num_hashes`` universal hash functions
``h_i(x) = (a_i * x + b_i) mod p`` to a shingle set and keeps each
function's minimum.  The fraction of agreeing components of two signatures
is an unbiased estimate of the Jaccard similarity of the underlying shingle
sets, with standard error ``~ 1 / sqrt(num_hashes)``.
:meth:`MinHasher.signatures` computes them exactly in ``uint64`` for a
batch of shingle sets at once.

:func:`band_similarity` is the package's one near-duplicate rule: the
signature is cut into ``b`` bands of ``r`` rows, and two signatures count
as similar only when some band agrees on all its rows (LSH banding, pair
probability ``1 - (1 - J^r)^b`` for true Jaccard ``J``); their similarity
is then the agreement fraction.  Novelty and waste scoring both read it.

The coefficients derive from a seed through
:func:`~repro.utils.rng.derive_seed`, so every process constructing a
:class:`MinHasher` with the same parameters produces identical signatures —
the property all cross-backend determinism tests lean on.
"""

from __future__ import annotations

from itertools import chain
from typing import AbstractSet, Sequence

import numpy as np

from repro.utils.rng import SeededRandom

#: Mersenne prime 2^61 - 1: large enough for 64-bit shingle hashes, and
#: 2^61 ≡ 1 (mod p) reduces a uint64 with a shift, a mask and an add.
_PRIME = (1 << 61) - 1

#: Sentinel component for an empty shingle set (no shingle can hash to it).
EMPTY_COMPONENT = _PRIME

# np.uint64 operands only: numpy < 2 may turn uint64-and-int arithmetic
# into float64.
_P = np.uint64(_PRIME)
_LOW31 = np.uint64((1 << 31) - 1)
_LOW30 = np.uint64((1 << 30) - 1)
_1, _30, _31, _61 = (np.uint64(n) for n in (1, 30, 31, 61))


def _reduce(values: np.ndarray) -> np.ndarray:
    """``values mod p`` for any uint64 array."""
    values = (values & _P) + (values >> _61)
    np.subtract(values, _P, out=values, where=values >= _P)
    return values


def _mul_mod(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a * x mod p`` for ``a, x < p``, broadcast, without overflow.

    With 31-bit halves, ``a x = a_hi x_hi 2^62 + mid 2^31 + a_lo x_lo``;
    ``2^62 ≡ 2`` and ``mid 2^31 ≡ (mid >> 30) + (mid mod 2^30) 2^31``, so
    every term is below 2^62 and their sum below 2^64.
    """
    a_hi, a_lo = a >> _31, a & _LOW31
    x_hi, x_lo = x >> _31, x & _LOW31
    mid = a_hi * x_lo + a_lo * x_hi
    return _reduce(((a_hi * x_hi) << _1) + (mid >> _30)
                   + ((mid & _LOW30) << _31) + a_lo * x_lo)


class MinHasher:
    """Computes MinHash signatures with deterministic, seeded coefficients."""

    def __init__(self, num_hashes: int = 64, seed: int = 0x5EED) -> None:
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_hashes = num_hashes
        self.seed = seed
        rng = SeededRandom(seed).spawn("minhash-coefficients")
        #: One ``(a, b)`` row per hash function, ``1 <= a < p``, ``0 <= b < p``.
        self.coefficients = np.array(
            [(rng.randint(1, _PRIME - 1), rng.randint(0, _PRIME - 1))
             for _ in range(num_hashes)], dtype=np.uint64)

    def signatures(self, shingle_sets: Sequence[AbstractSet[int]]) -> np.ndarray:
        """The signatures of several shingle sets, one uint64 row each.

        An empty set maps to the all-:data:`EMPTY_COMPONENT` row, similar
        only to another empty set.  Temporaries are ``num_hashes`` × the
        total shingle count, so callers sign tens of pages per call.
        """
        sizes = np.array([len(shingles) for shingles in shingle_sets],
                         dtype=np.int64)
        out = np.full((len(sizes), self.num_hashes), _P, dtype=np.uint64)
        filled = sizes > 0
        if filled.any():
            # Shingle hashes reach 2^64 - 1: reduce them below p first.
            x = _reduce(np.fromiter(chain.from_iterable(shingle_sets),
                                    dtype=np.uint64, count=int(sizes.sum())))
            a, b = self.coefficients[:, :1], self.coefficients[:, 1:]
            hashes = _reduce(_mul_mod(a, x) + b)
            starts = np.cumsum(sizes[filled]) - sizes[filled]
            out[filled] = np.minimum.reduceat(hashes, starts, axis=1).T
        return out

    def signature(self, shingles: AbstractSet[int]) -> np.ndarray:
        """The signature of one shingle set."""
        return self.signatures([shingles])[0]


def band_similarity(left: np.ndarray, right: np.ndarray,
                    num_bands: int) -> np.ndarray:
    """Band-gated similarity of every ``left`` row to every ``right`` row.

    ``out[i, j]`` is the fraction of agreeing components when some band
    agrees on all its rows, else 0.0 — what an LSH bucket lookup followed
    by a signature check answers.
    """
    num_hashes = left.shape[1]
    if num_hashes % num_bands:
        raise ValueError(f"signature length {num_hashes} is not divisible by "
                         f"{num_bands} bands")
    agree = left[:, None, :] == right[None, :, :]
    banded = agree.reshape(len(left), len(right), num_bands,
                           num_hashes // num_bands).all(axis=3).any(axis=2)
    return np.where(banded, agree.sum(axis=2) / num_hashes, 0.0)
