"""Chandra-Toueg: rotating coordinator, majority threshold."""

import pytest

from repro.algorithms.chandra_toueg import build_chandra_toueg
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.selector import LeaderSelector
from repro.core.types import FaultModel
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.faults.crash import CrashEvent, CrashSchedule


class TestBuilder:
    def test_bound(self):
        with pytest.raises(ValueError, match="n > 2f"):
            build_chandra_toueg(2, f=1)

    def test_rotating_coordinator(self):
        spec = build_chandra_toueg(3)
        selector = spec.parameters.selector
        assert selector.select(0, 1) == frozenset({0})
        assert selector.select(0, 2) == frozenset({1})


class TestExecution:
    def test_decides_phase_one_with_live_coordinator(self):
        spec = build_chandra_toueg(3)
        outcome = spec.run({0: "a", 1: "b", 2: "c"})
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 1

    def test_rotation_skips_crashed_coordinator(self):
        """Phase 1's coordinator (process 0) is dead: the rotation reaches
        process 1 in phase 2 and decides there."""
        spec = build_chandra_toueg(3)
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
        assert outcome.phases_to_last_decision == 2

    def test_coordinator_value_propagates(self):
        # With coordinator 0 in phase 1 and a fresh system, its FLV answers
        # ? and selects deterministically; all correct adopt one value.
        spec = build_chandra_toueg(5)
        outcome = spec.run({pid: f"v{pid}" for pid in range(5)})
        assert len(outcome.decided_values) == 1

    def test_max_crashes(self):
        spec = build_chandra_toueg(5)  # f = 2
        schedule = CrashSchedule(
            spec.parameters.model,
            [CrashEvent(0, 1, frozenset()), CrashEvent(1, 1, frozenset())],
        )
        outcome = spec.run(
            {pid: f"v{pid}" for pid in range(5)},
            crash_schedule=schedule,
            max_phases=6,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided


def run_ct_with_leader(model, oracle, crashes, max_phases):
    """CT's class-2 FLV under a ``LeaderSelector``: the round-model form of
    CT with ♦S, whose coordinator is a function of the process and phase."""
    params = build_class_parameters(
        AlgorithmClass.CLASS_2, model, selector=LeaderSelector(model, oracle)
    )
    return run_instance(
        build_instance(params, {pid: f"v{pid}" for pid in model.processes}),
        LockstepScheduler(),
        max_phases=max_phases,
        crash_schedule=CrashSchedule(model, crashes),
    )


class TestLeaderAsPhaseFunction:
    def test_dead_coordinator_is_skipped_immediately(self):
        """A leader that never names crashed process 0 decides in phase 1,
        the phase plain rotation spends on it."""
        model = FaultModel(3, 0, 1)
        outcome = run_ct_with_leader(
            model,
            lambda p, phase: (phase - 1) % 3 or 1,
            [CrashEvent(0, 1, frozenset())],
            max_phases=5,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 1

    @pytest.mark.parametrize("stable_from", [1, 4, 7])
    def test_disagreeing_prefix_still_safe_and_eventually_live(self, stable_from):
        """Before ``stable_from`` every process names another coordinator
        (SL1 fails), some of them crashed: no phase decides until the
        leader is one correct process everywhere, and that phase does."""
        model = FaultModel(5, 0, 2)
        outcome = run_ct_with_leader(
            model,
            lambda p, phase: 1 if phase >= stable_from else (p + phase) % 5,
            [CrashEvent(0, 1, frozenset())],
            max_phases=stable_from + 3,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == stable_from

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_leader_that_never_stabilizes_costs_liveness_not_safety(self, n):
        model = FaultModel(n, 0, (n - 1) // 2)
        outcome = run_ct_with_leader(
            model, lambda p, phase: (p + phase) % n, [], max_phases=10
        )
        assert outcome.agreement_holds
        assert not outcome.decided_values
