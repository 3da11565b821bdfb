"""Paxos: leader-based benign consensus."""

import pytest

from repro.algorithms.paxos import build_paxos
from repro.core.selector import OmegaOracle
from repro.faults.crash import CrashEvent, CrashSchedule


class TestBuilder:
    def test_bound(self):
        with pytest.raises(ValueError, match="n > 2f"):
            build_paxos(4, f=2)

    def test_majority_threshold(self):
        assert build_paxos(3).parameters.threshold == 2
        assert build_paxos(5).parameters.threshold == 3

    def test_leader_selector_is_singleton(self):
        spec = build_paxos(3)
        assert spec.parameters.selector.is_singleton


    @pytest.mark.parametrize("n", [3, 5])
    def test_default_oracle_elects_the_last_process_everywhere(self, n):
        selector = build_paxos(n).parameters.selector
        assert selector.name == "selector-leader"  # the name rows carry
        assert {selector.select(p, phase) for p in range(n) for phase in (1, 9)} == {
            frozenset({n - 1})
        }


class TestExecution:
    def test_decides_with_stable_leader(self):
        spec = build_paxos(3)
        outcome = spec.run({0: "a", 1: "b", 2: "c"})
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 1

    def test_leader_value_wins_fresh_start(self):
        # With leader n−1 and a fresh system, Algorithm 7 returns ? at the
        # leader, which then picks deterministically among all proposals.
        spec = build_paxos(3, oracle=OmegaOracle(2))
        outcome = spec.run({0: "b", 1: "c", 2: "a"})
        assert len(outcome.decided_values) == 1

    def test_tolerates_minority_crashes(self):
        spec = build_paxos(5)
        model = spec.parameters.model
        schedule = CrashSchedule(
            model, [CrashEvent(0, 1, frozenset()), CrashEvent(1, 2)]
        )
        outcome = spec.run(
            {pid: f"v{pid}" for pid in range(5)}, crash_schedule=schedule
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided

    def test_crashed_leader_blocks_until_reelection(self):
        """A dead leader stalls phases; a stabilizing oracle recovers."""
        model_n = 3

        def oracle(p, phase):
            # everyone follows doomed process 0 until phase 3 elects 2
            return 2 if phase >= 3 else 0

        spec = build_paxos(model_n, oracle=oracle)
        schedule = CrashSchedule(
            spec.parameters.model, [CrashEvent(0, 1, frozenset())]
        )
        outcome = spec.run(
            {pid: f"v{pid}" for pid in range(3)},
            crash_schedule=schedule,
            max_phases=8,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        # Decision can only happen once the oracle stabilizes (phase ≥ 3).
        assert outcome.phases_to_last_decision >= 3

    def test_indulgence_no_decision_before_stabilization_means_no_conflict(
        self,
    ):
        """Whatever the disagreeing leader prefix does, agreement holds."""
        for shift in range(3):

            def oracle(p, phase, shift=shift):
                # before phase 4 every process sees another leader (SL1 fails)
                return 2 if phase >= 4 else (p + phase + shift) % 3

            spec = build_paxos(3, oracle=oracle)
            outcome = spec.run({0: "x", 1: "y", 2: "z"}, max_phases=10)
            assert outcome.agreement_holds, shift
            assert outcome.all_correct_decided, shift

    def test_dead_leader_is_never_elected(self):
        """A leader that avoids crashed process 0 decides in phase 1."""
        spec = build_paxos(3, oracle=lambda p, phase: 1)
        schedule = CrashSchedule(
            spec.parameters.model, [CrashEvent(0, 1, frozenset())]
        )
        outcome = spec.run(
            {pid: f"v{pid}" for pid in range(3)},
            crash_schedule=schedule,
            max_phases=5,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 1

    def test_a_leader_that_never_stabilizes_costs_liveness_not_safety(self):
        spec = build_paxos(3, oracle=lambda p, phase: (p + phase) % 3)
        outcome = spec.run({0: "x", 1: "y", 2: "z"}, max_phases=10)
        assert outcome.agreement_holds
        assert not outcome.decided_values
