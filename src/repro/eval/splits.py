"""Entity splits for the evaluation protocol.

Sect. VI-A: *"In each domain, we randomly reserved half of the entities as
domain entities, and the remaining as target entities ... Target entities
were further divided into two equal splits, such that one of the splits is
reserved for parameter validation, and the other for testing.  We repeated
the split randomly for 10 times."*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.utils.rng import SeededRandom


@dataclass(frozen=True)
class EntitySplit:
    """One random split of the entities of a domain."""

    domain_entities: tuple
    validation_entities: tuple
    test_entities: tuple
    seed: int

    def __post_init__(self) -> None:
        overlap = (set(self.domain_entities) & set(self.validation_entities)
                   | set(self.domain_entities) & set(self.test_entities)
                   | set(self.validation_entities) & set(self.test_entities))
        if overlap:
            raise ValueError(f"entity splits overlap: {sorted(overlap)}")


def split_entities(entity_ids: Sequence[str], seed: int = 0,
                   domain_fraction: float = 0.5) -> EntitySplit:
    """Split entities into domain / validation / test sets.

    ``domain_fraction`` of the entities become domain entities; the rest is
    divided equally into validation and test.
    """
    if not entity_ids:
        raise ValueError("cannot split an empty entity collection")
    if not 0.0 <= domain_fraction < 1.0:
        raise ValueError("domain_fraction must be in [0, 1)")
    rng = SeededRandom(seed).spawn("entity-split")
    shuffled = rng.shuffled(sorted(entity_ids))
    num_domain = int(round(len(shuffled) * domain_fraction))
    num_domain = min(num_domain, len(shuffled) - 2) if len(shuffled) > 2 else num_domain
    domain = shuffled[:num_domain]
    remaining = shuffled[num_domain:]
    half = len(remaining) // 2
    validation = remaining[:half]
    test = remaining[half:]
    return EntitySplit(
        domain_entities=tuple(sorted(domain)),
        validation_entities=tuple(sorted(validation)),
        test_entities=tuple(sorted(test)),
        seed=seed,
    )


def subsample_entities(entity_ids: Sequence[str], fraction: float,
                       seed: int = 0) -> List[str]:
    """Deterministically subsample a fraction of entities (used by Fig. 11)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(entity_ids)
    if fraction >= 1.0:
        return ordered
    count = int(round(len(ordered) * fraction))
    if fraction > 0.0 and count == 0:
        count = 1
    rng = SeededRandom(seed).spawn("domain-subsample", fraction)
    return sorted(rng.sample(ordered, count))
