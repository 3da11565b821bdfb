"""Lemma-level checkers on snapshot-recorded runs (``observe="full"``
records state snapshots by default)."""

import random

import pytest

from repro.analysis.invariants import InvariantViolation
from repro.analysis.lemmas import (
    check_all_lemmas,
    check_decision_support,
    check_lemma4_unique_validated_value,
    check_timestamp_monotonicity,
    check_validated_pair_was_selected,
)
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.faults import STRATEGY_REGISTRY
from repro.rounds.policies import random_drop_behavior
from repro.rounds.schedule import GoodBadSchedule


def snapshot_run(cls, model, strategy=None, bad_prefix=0, seed=0):
    params = build_class_parameters(cls, model)
    byzantine = {model.n - 1: strategy} if strategy else {}
    values = {
        pid: f"v{pid % 2}" for pid in model.processes if pid not in byzantine
    }
    good_bad = None
    if bad_prefix:
        good_bad = (
            GoodBadSchedule.good_after(bad_prefix + 1),
            random_drop_behavior(random.Random(seed)),
        )
    return run_instance(
        build_instance(params, values, byzantine=byzantine),
        LockstepScheduler(good_bad),
        max_phases=bad_prefix + 8,
    )


class TestLemmaChecksOnCleanRuns:
    @pytest.mark.parametrize("strategy", sorted(STRATEGY_REGISTRY))
    def test_class3_under_every_strategy(self, strategy):
        outcome = snapshot_run(
            AlgorithmClass.CLASS_3, FaultModel(4, 1, 0), strategy
        )
        check_all_lemmas(outcome)

    @pytest.mark.parametrize("strategy", ["equivocator", "high-ts-liar"])
    def test_class2_under_attack(self, strategy):
        outcome = snapshot_run(
            AlgorithmClass.CLASS_2, FaultModel(5, 1, 0), strategy
        )
        check_all_lemmas(outcome)

    def test_multi_phase_runs(self):
        for seed in range(4):
            outcome = snapshot_run(
                AlgorithmClass.CLASS_3,
                FaultModel(4, 1, 0),
                "adaptive-liar",
                bad_prefix=6,
                seed=seed,
            )
            assert outcome.all_correct_decided
            check_all_lemmas(outcome)


class TestCheckersDetectViolations:
    def test_lemma4_checker_fires_on_forged_trace(self):
        outcome = snapshot_run(AlgorithmClass.CLASS_3, FaultModel(4, 1, 0))
        # Corrupt the recorded snapshots: two validated values in phase 1.
        for record in outcome.trace.records:
            if record.snapshots:
                pids = list(record.snapshots)
                record.snapshots[pids[0]] = ("A", record.info.phase, frozenset())
                record.snapshots[pids[1]] = ("B", record.info.phase, frozenset())
        with pytest.raises(InvariantViolation, match="Lemma 4"):
            check_lemma4_unique_validated_value(outcome)

    def test_monotonicity_checker_fires(self):
        outcome = snapshot_run(AlgorithmClass.CLASS_3, FaultModel(4, 1, 0))
        records = outcome.trace.records
        # Inject a decreasing timestamp for process 0 in the last record.
        records[-1].snapshots[0] = ("x", -0, frozenset())
        records[-1].snapshots[0] = ("x", 0, frozenset())
        records[0].snapshots[0] = ("x", 5, frozenset())
        with pytest.raises(InvariantViolation, match="decreased"):
            check_timestamp_monotonicity(outcome)

    def test_support_checker_fires(self):
        outcome = snapshot_run(AlgorithmClass.CLASS_3, FaultModel(4, 1, 0))
        # Erase all validation-round support.
        for record in outcome.trace.records:
            for pid in list(record.snapshots):
                record.snapshots[pid] = ("never-decided", 0, frozenset())
        if outcome.decisions:
            with pytest.raises(InvariantViolation, match="supporters"):
                check_decision_support(outcome)


class TestSelectiveApplicability:
    def test_history_check_skips_class2(self):
        outcome = snapshot_run(AlgorithmClass.CLASS_2, FaultModel(5, 1, 0))
        # Class 2 records no history: the checker must pass vacuously.
        check_validated_pair_was_selected(outcome)

    def test_flag_any_skips_decision_support(self):
        outcome = snapshot_run(AlgorithmClass.CLASS_1, FaultModel(6, 1, 0))
        check_decision_support(outcome)  # vacuous for FLAG=*
