"""``RunContext``: the fault bookkeeping of one run."""

import pytest

from repro.core.types import FaultModel
from repro.rounds.base import RunContext


class TestRunContext:
    def test_byzantine_bounds(self):
        model = FaultModel(4, 1, 0)
        with pytest.raises(ValueError):
            RunContext(model, byzantine=frozenset({0, 1}))

    def test_out_of_range_byzantine(self):
        model = FaultModel(4, 1, 0)
        with pytest.raises(ValueError):
            RunContext(model, byzantine=frozenset({7}))

    def test_crash_cap(self):
        model = FaultModel(4, 0, 1)
        ctx = RunContext(model)
        ctx.mark_crashed(0)
        with pytest.raises(ValueError):
            ctx.mark_crashed(1)

    def test_correct_set(self):
        model = FaultModel(4, 1, 1)
        ctx = RunContext(model, byzantine=frozenset({3}))
        ctx.mark_crashed(0)
        assert ctx.correct == frozenset({1, 2})
        assert ctx.honest == frozenset({0, 1, 2})
