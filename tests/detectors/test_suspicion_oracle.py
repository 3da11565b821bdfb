"""CT driven by ♦S: the suspicion-aware coordinator oracle."""

import pytest

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.selector import LeaderSelector
from repro.core.types import FaultModel
from repro.detectors.failure_detector import DiamondS, suspicion_driven_oracle
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.faults.crash import CrashEvent, CrashSchedule


def build_ct_with_detector(model, detector):
    oracle = suspicion_driven_oracle(model, detector)
    return build_class_parameters(
        AlgorithmClass.CLASS_2, model, selector=LeaderSelector(model, oracle)
    )


class TestOracleMechanics:
    def test_skips_suspected_coordinator(self):
        model = FaultModel(3, 0, 1)
        detector = DiamondS(model, faulty={0}, accurate_from_round=1)
        oracle = suspicion_driven_oracle(model, detector)
        # Phase 1 would rotate to process 0, but 0 is suspected → 1.
        assert oracle(1, 1) == 1
        assert oracle(2, 1) == 1

    def test_trusts_unsuspected_rotation(self):
        model = FaultModel(3, 0, 1)
        detector = DiamondS(model, faulty=set(), accurate_from_round=1)
        oracle = suspicion_driven_oracle(model, detector)
        assert [oracle(0, phase) for phase in (1, 2, 3)] == [0, 1, 2]

    def test_all_suspected_falls_back(self):
        model = FaultModel(3, 0, 1)
        detector = DiamondS(
            model, faulty={0}, accurate_from_round=100, false_suspicion_prob=1.0
        )
        oracle = suspicion_driven_oracle(model, detector)
        # Everyone (except the observer) suspected: rotation fallback.
        leader = oracle(1, 1)
        assert 0 <= leader < 3


class TestCtWithDetectorEndToEnd:
    def test_dead_coordinator_is_skipped_immediately(self):
        """With an accurate ♦S, the phase-1 rotation target (crashed process
        0) is never elected: decision lands in phase 1 via coordinator 1."""
        model = FaultModel(3, 0, 1)
        detector = DiamondS(model, faulty={0}, accurate_from_round=1)
        params = build_ct_with_detector(model, detector)
        schedule = CrashSchedule(model, [CrashEvent(0, 1, frozenset())])
        outcome = run_instance(
            build_instance(params, {pid: f"v{pid}" for pid in range(3)}),
            LockstepScheduler(),
            max_phases=5,
            crash_schedule=schedule,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 1  # no wasted phase!

    def test_plain_rotation_wastes_the_first_phase(self):
        """Contrast: without the detector, CT burns phase 1 on the corpse."""
        from repro.algorithms import build_chandra_toueg

        spec = build_chandra_toueg(3)
        schedule = CrashSchedule(
            spec.parameters.model, [CrashEvent(0, 1, frozenset())]
        )
        outcome = spec.run(
            {pid: f"v{pid}" for pid in range(3)},
            crash_schedule=schedule,
            max_phases=5,
        )
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 2

    def test_noisy_detector_still_safe_and_eventually_live(self):
        model = FaultModel(5, 0, 2)
        detector = DiamondS(
            model,
            faulty={0},
            accurate_from_round=12,
            false_suspicion_prob=0.6,
            seed=5,
        )
        params = build_ct_with_detector(model, detector)
        schedule = CrashSchedule(model, [CrashEvent(0, 1, frozenset())])
        outcome = run_instance(
            build_instance(params, {pid: f"v{pid}" for pid in range(5)}),
            LockstepScheduler(),
            max_phases=12,
            crash_schedule=schedule,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
