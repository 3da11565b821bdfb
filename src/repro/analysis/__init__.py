"""Trace recording, invariant checking and metrics."""

from repro.analysis.invariants import (
    InvariantViolation,
    check_agreement,
    check_integrity,
    check_termination,
    check_unanimity,
    check_validity,
    evaluate_properties,
)
from repro.analysis.metrics import RunMetrics
from repro.analysis.trace import ExecutionTrace, RoundRecord

__all__ = [
    "ExecutionTrace",
    "InvariantViolation",
    "RoundRecord",
    "RunMetrics",
    "check_agreement",
    "check_integrity",
    "check_termination",
    "check_unanimity",
    "check_validity",
    "evaluate_properties",
]
