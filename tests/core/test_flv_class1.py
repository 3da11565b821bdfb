"""FLV class 1 (Algorithm 2) — including the paper's Figure 1 scenario."""

import pytest

from repro.core.flv_class1 import (
    FLVClass1,
    class1_min_threshold,
)
from repro.core.types import FaultModel
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE
from tests.conftest import sel_msg


@pytest.fixture
def fig1_flv():
    """Figure 1 parameters: n=6, b=1, f=0, TD=5 (slack n−TD+b = 2)."""
    return FLVClass1(FaultModel(n=6, b=1, f=0), threshold=5)


class TestFigure1Scenario:
    """The exact scenario illustrated in Figure 1 of the paper."""

    def test_locked_value_is_returned(self, fig1_flv):
        # TD − b = 4 honest processes vote v1; n − TD + b = 2 vote v2.
        messages = [sel_msg("v1")] * 4 + [sel_msg("v2")] * 2
        assert fig1_flv.evaluate(messages) == "v1"

    def test_large_vector_never_returns_any_when_locked(self, fig1_flv):
        # Any subset of > 2(n − TD + b) = 4 messages contains > 2 × v1.
        messages = [sel_msg("v1")] * 3 + [sel_msg("v2")] * 2
        assert fig1_flv.evaluate(messages) == "v1"

    def test_small_vector_returns_null(self, fig1_flv):
        # ≤ 2(n − TD + b) messages and no value above the support bar.
        messages = [sel_msg("v1")] * 2 + [sel_msg("v2")] * 2
        assert fig1_flv.evaluate(messages) is NULL_VALUE

    def test_unlocked_large_vector_returns_any(self, fig1_flv):
        # 5 messages, no value with > 2 support... requires ≥ 3 values.
        messages = (
            [sel_msg("a")] * 2 + [sel_msg("b")] * 2 + [sel_msg("c")]
        )
        assert fig1_flv.evaluate(messages) is ANY_VALUE


class TestBounds:
    def test_min_threshold(self):
        model = FaultModel(n=6, b=1, f=0)
        # TD > (6 + 3)/2 = 4.5 → 5.
        assert class1_min_threshold(model) == 5

    def test_liveness_bound_check(self):
        model = FaultModel(n=6, b=1, f=0)
        assert FLVClass1(model, 5).satisfies_liveness_bound()
        assert not FLVClass1(model, 4).satisfies_liveness_bound()


class TestProperties:
    def test_empty_vector_returns_null(self, fig1_flv):
        assert fig1_flv.evaluate([]) is NULL_VALUE

    def test_validity_result_is_a_received_vote(self, fig1_flv):
        messages = [sel_msg("only")] * 5
        assert fig1_flv.evaluate(messages) == "only"

    def test_liveness_full_correct_vector_not_null(self, fig1_flv):
        # n − b − f = 5 messages from correct processes: never null.
        messages = [sel_msg(f"v{i}") for i in range(5)]
        result = fig1_flv.evaluate(messages)
        assert result is not NULL_VALUE

    def test_requirements(self, fig1_flv):
        req = fig1_flv.requirements
        assert not req.uses_ts
        assert not req.uses_history
        assert req.supports_prel_liveness

    def test_timestamps_are_ignored(self, fig1_flv):
        with_ts = [sel_msg("v1", ts=9)] * 4 + [sel_msg("v2", ts=1)] * 2
        assert fig1_flv.evaluate(with_ts) == "v1"


class TestAgreementAfterDecision:
    """If v was decided, TD−b honest keep voting v; FLV can only return v."""

    @pytest.mark.parametrize("extra_v2", range(0, 3))
    def test_post_decision_vectors(self, fig1_flv, extra_v2):
        honest_v1 = 4  # TD − b
        messages = [sel_msg("v1")] * honest_v1 + [sel_msg("v2")] * extra_v2
        result = fig1_flv.evaluate(messages)
        assert result in ("v1", NULL_VALUE)
        if len(messages) > 4:  # 2(n − TD + b)
            assert result == "v1"
