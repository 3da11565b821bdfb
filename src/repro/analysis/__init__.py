"""Trace recording, invariant checking and metrics."""

from repro.analysis.invariants import InvariantViolation, evaluate_properties
from repro.analysis.metrics import RunMetrics
from repro.analysis.trace import ExecutionTrace, RoundRecord

__all__ = [
    "ExecutionTrace",
    "InvariantViolation",
    "RoundRecord",
    "RunMetrics",
    "evaluate_properties",
]
