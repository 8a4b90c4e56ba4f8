"""Graph substrate: reinforcement graph and the utility (random-walk) solver."""

from repro.graph.random_walk import (
    MODE_PRECISION,
    MODE_RECALL,
    UtilitySolver,
    UtilityVector,
)
from repro.graph.reinforcement import ReinforcementGraph

__all__ = [
    "MODE_PRECISION",
    "MODE_RECALL",
    "ReinforcementGraph",
    "UtilitySolver",
    "UtilityVector",
]
