"""Shared utilities: seeded randomness, registries and vectorization helpers."""

from repro.utils.rng import SeededRandom, derive_seed

__all__ = [
    "SeededRandom",
    "derive_seed",
]
