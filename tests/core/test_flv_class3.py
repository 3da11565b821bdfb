"""FLV class 3 (Algorithm 4) — including the paper's Figure 3 scenario."""

import pytest

from repro.core.flv_class3 import (
    FLVClass3,
    class3_min_threshold,
)
from repro.core.types import FaultModel
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE
from tests.conftest import sel_msg


@pytest.fixture
def fig3_flv():
    """Figure 3 parameters: n=4, b=1, f=0, TD=3 (slack n−TD+b = 2)."""
    return FLVClass3(FaultModel(n=4, b=1, f=0), threshold=3)


def history_with(*pairs):
    return frozenset(pairs)


class TestFigure3Scenario:
    """The exact scenario illustrated in Figure 3 of the paper."""

    def test_locked_value_certified_by_histories(self, fig3_flv):
        phi1 = 2
        # TD − b = 2 honest validated (v1, φ1); their histories certify it.
        m1 = sel_msg("v1", ts=phi1, history=history_with(("v1", 0), ("v1", phi1)))
        m2 = sel_msg("v1", ts=phi1, history=history_with(("v1", 0), ("v1", phi1)))
        # One honest lags with (v2, φ2' < φ1).
        m3 = sel_msg("v2", ts=1, history=history_with(("v2", 0), ("v2", 1)))
        # The Byzantine forges (v2, φ2 > φ1) with a fabricated history.
        m4 = sel_msg("v2", ts=9, history=history_with(("v2", 0), ("v2", 9)))
        assert fig3_flv.evaluate([m1, m2, m3, m4]) == "v1"

    def test_forged_history_lacks_support(self, fig3_flv):
        # The Byzantine (v2, 9) pair appears in only b = 1 history,
        # so line 2's "> b" filter rejects it even though it dominates line 1.
        phi1 = 2
        m1 = sel_msg("v1", ts=phi1, history=history_with(("v1", phi1)))
        m2 = sel_msg("v1", ts=phi1, history=history_with(("v1", phi1)))
        m4 = sel_msg("v2", ts=9, history=history_with(("v2", 9)))
        # With only 3 messages the safe answers are v1 or null — the forged
        # v2 (certified by a single history) must never be returned.
        assert fig3_flv.evaluate([m1, m2, m4]) in ("v1", NULL_VALUE)

    def test_unanimity_branch(self, fig3_flv):
        # All honest proposed v (ts = 0 everywhere); a Byzantine pushes w.
        messages = [sel_msg("v", ts=0)] * 3 + [sel_msg("w", ts=0)]
        assert fig3_flv.evaluate(messages) == "v"

    def test_fresh_system_no_majority_returns_any(self, fig3_flv):
        messages = [
            sel_msg("a", ts=0),
            sel_msg("b", ts=0),
            sel_msg("c", ts=0),
            sel_msg("d", ts=0),
        ]
        assert fig3_flv.evaluate(messages) is ANY_VALUE

    def test_insufficient_vector_returns_null(self, fig3_flv):
        messages = [sel_msg("a", ts=1, history=history_with(("a", 1)))]
        assert fig3_flv.evaluate(messages) is NULL_VALUE


class TestUnanimityToggle:
    def test_pbft_mode_skips_majority_branch(self):
        model = FaultModel(n=4, b=1, f=0)
        flv = FLVClass3(model, threshold=3, ensure_unanimity=False)
        with_unanimity = FLVClass3(model, threshold=3)
        # Majority v at ts 0, histories empty (no certified pairs): the
        # unanimity branch is the only thing separating v from ?.
        messages = [sel_msg("v", ts=0, history=frozenset())] * 3 + [
            sel_msg("w", ts=0, history=frozenset())
        ]
        assert flv.evaluate(messages) is ANY_VALUE
        assert with_unanimity.evaluate(messages) == "v"

    def test_flag_exposed(self):
        model = FaultModel(4, 1, 0)
        assert FLVClass3(model, 3).ensure_unanimity
        assert not FLVClass3(model, 3, ensure_unanimity=False).ensure_unanimity


class TestMultipleCorrectVotes:
    def test_two_certified_votes_return_any(self, fig3_flv):
        # Construct a (non-reachable under a locked value) vector in which
        # two different pairs both have > b history support: FLV must return
        # ? (line 6), never silently pick one.
        certs = history_with(("a", 5), ("b", 5))
        m1 = sel_msg("a", ts=5, history=certs)
        m2 = sel_msg("a", ts=0, history=certs)
        m3 = sel_msg("b", ts=5, history=certs)
        m4 = sel_msg("b", ts=0, history=certs)
        assert fig3_flv.evaluate([m1, m2, m3, m4]) is ANY_VALUE


class TestBounds:
    def test_min_threshold(self):
        assert class3_min_threshold(FaultModel(4, 1, 0)) == 3
        assert class3_min_threshold(FaultModel(3, 0, 1)) == 2

    def test_liveness_bound(self):
        model = FaultModel(4, 1, 0)
        assert FLVClass3(model, 3).satisfies_liveness_bound()
        assert not FLVClass3(model, 2).satisfies_liveness_bound()


class TestRequirements:
    def test_uses_everything_and_needs_strong_selector(self, fig3_flv):
        req = fig3_flv.requirements
        assert req.uses_ts
        assert req.uses_history
        assert req.needs_strong_selector_validity
        assert not req.supports_prel_liveness

    def test_prel_liveness_counterexample(self, fig3_flv):
        """Section 6: class 3 fails the strengthened FLV-liveness.

        A vector of n − b − f messages in which a validated pair lacks
        history support (its selectors are outside the vector) yields null.
        """
        phi = 2
        m1 = sel_msg("v", ts=phi, history=history_with(("v", phi)))
        m2 = sel_msg("w", ts=1, history=history_with(("w", 1)))
        m3 = sel_msg("w", ts=1, history=history_with(("w", 1)))
        # 3 = n − b − f messages, but no pair reaches > b history support
        # while the ts = 0 branch does not fire either.
        assert fig3_flv.evaluate([m1, m2, m3]) is NULL_VALUE
