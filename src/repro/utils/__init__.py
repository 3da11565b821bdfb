"""Small shared utilities: sentinels, deterministic choice, counting helpers."""

from repro.utils.det import (
    deterministic_choice,
    majority_value,
    value_counts,
)
from repro.utils.rng import SeededRng
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE, Sentinel

__all__ = [
    "ANY_VALUE",
    "NULL_VALUE",
    "Sentinel",
    "SeededRng",
    "deterministic_choice",
    "majority_value",
    "value_counts",
]
