"""Trace recording and invariant checking."""

from repro.analysis.invariants import InvariantViolation, evaluate_properties
from repro.analysis.trace import ExecutionTrace, RoundRecord

__all__ = [
    "ExecutionTrace",
    "InvariantViolation",
    "RoundRecord",
    "evaluate_properties",
]
