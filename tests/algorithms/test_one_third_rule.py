"""OneThirdRule: instantiation vs the literal Algorithm 5."""

import pytest

from repro.algorithms.one_third_rule import (
    OriginalOneThirdRuleProcess,
    build_one_third_rule,
    one_third_rule_threshold,
)
from repro.core.types import FaultModel, RoundInfo, RoundKind
from repro.core.flv_class1 import FLVClass1
from repro.utils.sentinels import NULL_VALUE, ANY_VALUE
from repro.engine import ExecutionKernel, LockstepScheduler
from tests.conftest import sel_msg


class TestBuilder:
    def test_threshold(self):
        assert one_third_rule_threshold(FaultModel(4, 0, 1)) == 3
        assert one_third_rule_threshold(FaultModel(7, 0, 2)) == 5

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="n > 3f"):
            build_one_third_rule(6, f=2)

    def test_default_f_is_maximal(self):
        assert build_one_third_rule(7).parameters.model.f == 2
        assert build_one_third_rule(4).parameters.model.f == 1

    def test_decides_fault_free(self):
        spec = build_one_third_rule(4)
        outcome = spec.run({0: "a", 1: "b", 2: "a", 3: "b"})
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 1


class TestOriginalAlgorithm5:
    def run_original(self, n, values, rounds=4):
        model = FaultModel(n, 0, (n - 1) // 3)
        processes = {
            pid: OriginalOneThirdRuleProcess(pid, values[pid], model)
            for pid in range(n)
        }
        engine = ExecutionKernel(
            model,
            processes,
            LockstepScheduler(),
            lambda r: RoundInfo(r, r, RoundKind.SELECTION),
        )
        engine.run(rounds)
        return processes

    def test_unanimous_decides_in_one_round(self):
        processes = self.run_original(4, {pid: "v" for pid in range(4)})
        assert all(p.decided == "v" for p in processes.values())
        assert all(p.decision_round == 1 for p in processes.values())

    def test_split_decides_on_most_frequent(self):
        processes = self.run_original(4, {0: "a", 1: "a", 2: "a", 3: "b"})
        assert all(p.decided == "a" for p in processes.values())

    def test_agreement(self):
        processes = self.run_original(7, {pid: f"v{pid % 2}" for pid in range(7)})
        decided = {p.decided for p in processes.values() if p.decided}
        assert len(decided) <= 1


class TestImprovementClaim:
    """Section 5.1: whenever Algorithm 5 selects, Algorithm 2 selects too —
    and Algorithm 2 may select where Algorithm 5 cannot."""

    def test_instantiation_selects_where_original_cannot(self):
        model = FaultModel(6, 0, 1)
        td = one_third_rule_threshold(model)  # ⌈13/3⌉ = 5
        flv = FLVClass1(model, td)
        # 4 messages = not more than 2n/3 (= 4): Algorithm 5 does not select.
        messages = [sel_msg("v")] * 4
        assert 3 * len(messages) <= 2 * model.n
        # Algorithm 2 line 3 still selects v (support > n − TD + b = 1).
        assert flv.evaluate(messages) == "v"

    def test_whenever_original_selects_instantiation_does(self):
        model = FaultModel(6, 0, 1)
        td = one_third_rule_threshold(model)
        flv = FLVClass1(model, td)
        # > 2n/3 messages (Algorithm 5's line 7 condition) with any split:
        import itertools

        for split in range(6):
            messages = [sel_msg("a")] * split + [sel_msg("b")] * (5 - split)
            result = flv.evaluate(messages)
            # |μ| = 5 > 2(n − TD + b) = 2 → Algorithm 2 never answers null.
            assert result is not NULL_VALUE
