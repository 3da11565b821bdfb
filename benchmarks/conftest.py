"""Shared helpers for the benchmark suite.

Every bench module regenerates one experiment (ids T1, F1-F3, A1-A6, X1-X6;
each module's docstring names its own).  Benchmarks double as assertions:
each records the paper's qualitative claim and fails if the measured
behaviour stops matching it.

Run:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest


def byzantine_values(model, *, skip=None):
    """Standard split proposals for all honest processes."""
    skip = set(skip or ())
    return {
        pid: f"v{pid % 2}" for pid in model.processes if pid not in skip
    }


@pytest.fixture
def report(capsys):
    """Print a block that survives pytest's capture with -rA or -s."""

    def emit(text: str) -> None:
        print("\n" + text)

    return emit
