"""Constructive failures below the Table-1 bounds.

The library refuses to build below-bound parameters; with
``ConsensusParameters.unchecked`` we build them anyway and exhibit exactly the failures
Theorem 1 predicts — the empirical counterpart of the ``n`` and ``TD``
columns of Table 1.
"""

import pytest

from repro.core.flv_class1 import FLVClass1
from repro.core.flv_class2 import FLVClass2
from repro.core.parameters import ConsensusParameters
from repro.core.selector import AllProcessesSelector
from repro.core.types import FaultModel, Flag, RoundInfo, RoundKind
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.engine.scheduler import RoundDelivery, RoundScheduler
from repro.rounds.base import RunContext
from repro.rounds.policies import count_edges


class SplitDecisionScheduler(RoundScheduler):
    """An adversarial schedule splitting the decision round.

    Selection rounds deliver nothing (votes stay at their initial values);
    in decision rounds the first half of the receivers hears only the first
    half of the senders, and vice versa.  Legal under asynchrony: no
    communication predicate is promised.
    """

    def deliver_round(self, info, outbound, ctx):
        matrix = {}
        if info.kind is RoundKind.DECISION:
            half = ctx.model.n // 2
            for sender, messages in outbound.items():
                for dest, payload in messages.items():
                    same_half = (sender < half) == (dest < half)
                    if same_half:
                        matrix.setdefault(dest, {})[sender] = payload
        return RoundDelivery(
            matrix, dropped=count_edges(outbound) - count_edges(matrix)
        )


class TestAgreementNeedsTdAboveHalf:
    """FLAG = * with TD ≤ (n + b)/2 loses agreement (Theorem 1, iii-b)."""

    def test_split_brain_decision(self):
        model = FaultModel(6, 0, 0)
        td = 3  # ≤ (n + b)/2 = 3: forbidden by the paper, forced here
        params = ConsensusParameters.unchecked(
            model, td, Flag.ANY, FLVClass1(model, td), AllProcessesSelector(model)
        )
        values = {pid: ("v1" if pid < 3 else "v2") for pid in range(6)}
        outcome = run_instance(
            build_instance(params, values),
            SplitDecisionScheduler(),
            max_phases=1,
        )
        # Both halves reach their own TD: disagreement.
        assert not outcome.agreement_holds
        assert outcome.decided_values == {"v1", "v2"}

    def test_valid_td_resists_the_same_adversary(self):
        model = FaultModel(6, 0, 0)
        td = 4  # > (n + b)/2: the smallest sound threshold
        params = ConsensusParameters.unchecked(
            model, td, Flag.ANY, FLVClass1(model, td), AllProcessesSelector(model)
        )
        values = {pid: ("v1" if pid < 3 else "v2") for pid in range(6)}
        outcome = run_instance(
            build_instance(params, values),
            SplitDecisionScheduler(),
            max_phases=1,
        )
        assert outcome.agreement_holds  # nobody can decide in a 3-3 split
        assert not outcome.decisions


class TestTerminationNeedsTdWithinCorrect:
    """TD > n − b − f can never be met by the correct processes alone."""

    def test_silent_byzantine_starves_decision(self):
        model = FaultModel(4, 1, 0)
        td = 4  # > n − b = 3: forbidden (Theorem 1, iv), forced here
        params = ConsensusParameters.unchecked(
            model, td, Flag.ANY, FLVClass1(model, td), AllProcessesSelector(model)
        )
        values = {pid: "v" for pid in range(3)}
        outcome = run_instance(
            build_instance(params, values, byzantine={3: "silent"}),
            LockstepScheduler(),
            max_phases=6,
        )
        assert outcome.agreement_holds
        assert not outcome.decisions  # liveness gone forever

    def test_same_configuration_with_sound_td_decides(self):
        model = FaultModel(4, 1, 0)
        # FLAG=* needs TD > (n+b)/2 = 2.5 and ≤ n − b = 3 → TD = 3, but
        # class 1 liveness also needs TD > (n+3b+f)/2 = 3.5 — impossible:
        # exactly Table 1's statement that class 1 needs n > 5b.  Class 3
        # (PBFT) handles n = 4, b = 1 instead:
        from repro.core.classification import AlgorithmClass, build_class_parameters

        params = build_class_parameters(AlgorithmClass.CLASS_3, model)
        outcome = run_instance(
            build_instance(
                params,
                values := {pid: "v" for pid in range(3)},
                byzantine={3: "silent"},
            ),
            LockstepScheduler(),
        )
        assert outcome.all_correct_decided


class TestClass2BelowFourB:
    """MQB territory: at n = 4b the class-2 parameters cannot exist."""

    def test_no_valid_threshold_exists(self):
        model = FaultModel(4, 1, 0)
        # class 2 needs TD > 3b + f = 3 and TD ≤ n − b − f = 3: empty range.
        from repro.core.classification import AlgorithmClass

        assert not AlgorithmClass.CLASS_2.admits(model)

    def test_forced_low_threshold_loses_flv_liveness_bound(self):
        model = FaultModel(4, 1, 0)
        flv = FLVClass2(model, 3)
        assert not flv.satisfies_liveness_bound()
        # Concretely: a full correct vector can still answer null.
        from repro.utils.sentinels import NULL_VALUE
        from tests.conftest import sel_msg

        messages = [
            sel_msg("a", ts=1),
            sel_msg("b", ts=2),
            sel_msg("c", ts=3),
        ]  # n − b − f = 3 messages, nothing survives, |μ| = 3 ≤ n−TD+2b = 3
        assert flv.evaluate(messages) is NULL_VALUE

    def test_forced_run_may_never_decide(self):
        model = FaultModel(4, 1, 0)
        td = 3
        params = ConsensusParameters.unchecked(
            model,
            td,
            Flag.CURRENT_PHASE,
            FLVClass2(model, td),
            AllProcessesSelector(model),
        )
        values = {pid: f"v{pid}" for pid in range(3)}
        outcome = run_instance(
            build_instance(params, values, byzantine={3: "high-ts-liar"}),
            LockstepScheduler(),
            max_phases=8,
        )
        # Safety still holds (agreement is proven for TD > b)…
        assert outcome.agreement_holds
