"""Shared utilities: seeded randomness, logging and text statistics."""

from repro.utils.rng import SeededRandom, derive_seed

__all__ = [
    "SeededRandom",
    "derive_seed",
]
