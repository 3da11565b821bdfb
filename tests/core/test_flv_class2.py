"""FLV class 2 (Algorithm 3) — including the paper's Figure 2 scenario."""

import pytest

from repro.core.flv_class2 import (
    FLVClass2,
    class2_min_threshold,
    mqb_threshold,
    survivors,
)
from repro.core.types import FaultModel
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE
from tests.conftest import sel_msg


@pytest.fixture
def fig2_flv():
    """Figure 2 parameters: n=5, b=1, f=0, TD=4 (slack n−TD+b = 2)."""
    return FLVClass2(FaultModel(n=5, b=1, f=0), threshold=4)


class TestFigure2Scenario:
    """The exact scenario illustrated in Figure 2 of the paper."""

    def test_locked_value_beats_byzantine_high_ts(self, fig2_flv):
        # TD − b = 3 honest hold (v1, φ1); one honest holds (v2, φ2' < φ1);
        # the Byzantine claims (v2, φ2 > φ1).
        phi1 = 3
        messages = (
            [sel_msg("v1", ts=phi1)] * 3
            + [sel_msg("v2", ts=1)]
            + [sel_msg("v2", ts=7)]  # Byzantine lie
        )
        assert fig2_flv.evaluate(messages) == "v1"

    def test_byzantine_vote_alone_cannot_enter_correct_votes(self, fig2_flv):
        # The Byzantine message survives line 1 (its huge ts dominates all),
        # but line 2 requires > b supporting messages in possibleVotes.
        phi1 = 3
        messages = [sel_msg("v1", ts=phi1)] * 3 + [sel_msg("v2", ts=100)]
        survivors_set = survivors(messages, 2)
        assert sel_msg("v2", ts=100) in survivors_set
        assert fig2_flv.evaluate(messages) == "v1"

    def test_vector_above_any_bar_with_lock_returns_locked(self, fig2_flv):
        # |μ| > n − TD + 2b = 3 → may return ? only if nothing is locked.
        phi1 = 2
        messages = [sel_msg("v1", ts=phi1)] * 3 + [sel_msg("v2", ts=0)]
        assert fig2_flv.evaluate(messages) == "v1"

    def test_small_ambiguous_vector_returns_null(self, fig2_flv):
        messages = [sel_msg("v1", ts=1), sel_msg("v2", ts=2)]
        assert fig2_flv.evaluate(messages) is NULL_VALUE

    def test_fresh_system_large_vector_returns_any(self, fig2_flv):
        # All ts = 0, four distinct votes: nothing locked, |μ| = 4 > 3.
        messages = [sel_msg(f"v{i}", ts=0) for i in range(4)]
        assert fig2_flv.evaluate(messages) is ANY_VALUE


class TestSurvivors:
    def test_same_vote_counts(self):
        messages = [sel_msg("a", ts=0)] * 3
        assert len(survivors(messages, 2)) == 3

    def test_higher_ts_dominates(self):
        messages = [sel_msg("a", ts=5), sel_msg("b", ts=0), sel_msg("c", ts=0)]
        kept = survivors(messages, 2)
        assert sel_msg("a", ts=5) in kept
        assert sel_msg("b", ts=0) not in kept

    def test_multiset_semantics(self):
        # Identical messages each count once per copy.
        messages = [sel_msg("a", ts=1)] * 2 + [sel_msg("b", ts=0)]
        kept = survivors(messages, 2)
        assert kept.count(sel_msg("a", ts=1)) == 2


class TestBounds:
    def test_min_threshold(self):
        assert class2_min_threshold(FaultModel(5, 1, 0)) == 4
        assert class2_min_threshold(FaultModel(3, 0, 1)) == 2

    def test_mqb_threshold(self):
        # ⌈(n + 2b + 1)/2⌉ for n=5, b=1 → ⌈8/2⌉ = 4.
        assert mqb_threshold(FaultModel(5, 1, 0)) == 4
        assert mqb_threshold(FaultModel(9, 2, 0)) == 7

    def test_liveness_bound(self):
        model = FaultModel(5, 1, 0)
        assert FLVClass2(model, 4).satisfies_liveness_bound()
        assert not FLVClass2(model, 3).satisfies_liveness_bound()


class TestProperties:
    def test_empty_returns_null(self, fig2_flv):
        assert fig2_flv.evaluate([]) is NULL_VALUE

    def test_liveness_full_correct_vector_not_null(self, fig2_flv):
        # n − b − f = 4 messages: the |μ| > n − TD + 2b = 3 bar is met.
        messages = [sel_msg(f"v{i}", ts=0) for i in range(4)]
        assert fig2_flv.evaluate(messages) is not NULL_VALUE

    def test_requirements(self, fig2_flv):
        req = fig2_flv.requirements
        assert req.uses_ts
        assert not req.uses_history
        assert req.supports_prel_liveness

    def test_unanimity_start(self, fig2_flv):
        # All honest share v at ts 0: only v (or null) may come back.
        messages = [sel_msg("v", ts=0)] * 4 + [sel_msg("w", ts=0)]
        assert fig2_flv.evaluate(messages) == "v"
