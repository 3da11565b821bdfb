"""``build_instance`` + ``run_instance`` under the lockstep scheduler:
happy path, input validation, fault specs, crash/loss/bad-period runs."""

import pytest

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.parameters import GenericConsensusConfig
from repro.core.types import FaultModel
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.faults import STRATEGY_REGISTRY
from repro.faults.byzantine import SilentByzantine
from repro.faults.crash import CrashSchedule
from repro.rounds.policies import random_drop_behavior
from repro.rounds.schedule import GoodBadSchedule
import random


class TestHappyPath:
    def test_all_classes_decide_in_one_phase(self):
        cases = [
            (AlgorithmClass.CLASS_1, FaultModel(6, 1, 0)),
            (AlgorithmClass.CLASS_2, FaultModel(5, 1, 0)),
            (AlgorithmClass.CLASS_3, FaultModel(4, 1, 0)),
        ]
        for cls, model in cases:
            params = build_class_parameters(cls, model)
            values = {pid: f"v{pid % 2}" for pid in model.processes}
            outcome = run_instance(build_instance(params, values), LockstepScheduler())
            assert outcome.agreement_holds
            assert outcome.all_correct_decided
            assert outcome.phases_to_last_decision == 1

    def test_validity(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        values = {pid: "only" for pid in pbft_model.processes}
        outcome = run_instance(build_instance(params, values), LockstepScheduler())
        assert outcome.decided_values == {"only"}
        assert outcome.validity_holds()

    def test_unanimity_with_byzantine(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        values = {pid: "agreed" for pid in range(3)}
        outcome = run_instance(
            build_instance(params, values, byzantine={3: "vote-flipper"}),
            LockstepScheduler(),
        )
        assert outcome.decided_values == {"agreed"}
        assert outcome.unanimity_holds()


class TestInputValidation:
    def test_missing_initial_value(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        with pytest.raises(ValueError, match="missing initial value"):
            run_instance(build_instance(params, {0: "a"}), LockstepScheduler())

    def test_too_many_byzantine(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        with pytest.raises(ValueError, match="exceed b"):
            run_instance(
                build_instance(
                    params,
                    {0: "a", 1: "a"},
                    byzantine={2: "silent", 3: "silent"},
                ),
                LockstepScheduler(),
            )

    def test_unknown_strategy_name(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        with pytest.raises(ValueError, match="unknown Byzantine strategy"):
            run_instance(
                build_instance(
                    params,
                    {0: "a", 1: "a", 2: "a"},
                    byzantine={3: "nonsense"},
                ),
                LockstepScheduler(),
            )


class TestByzantineSpecs:
    def test_all_registry_strategies_run(self, mqb_model):
        params = build_class_parameters(AlgorithmClass.CLASS_2, mqb_model)
        values = {pid: f"v{pid % 2}" for pid in range(4)}
        for name in STRATEGY_REGISTRY:
            outcome = run_instance(
                build_instance(params, values, byzantine={4: name}),
                LockstepScheduler(),
            )
            assert outcome.agreement_holds, name
            assert outcome.all_correct_decided, name

    def test_instance_spec(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        strategy = SilentByzantine(3, params)
        outcome = run_instance(
            build_instance(
                params,
                {0: "a", 1: "a", 2: "b"},
                byzantine={3: strategy},
            ),
            LockstepScheduler(),
        )
        assert outcome.agreement_holds

    def test_factory_spec(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        outcome = run_instance(
            build_instance(
                params,
                {0: "a", 1: "a", 2: "b"},
                byzantine={3: lambda pid, p: SilentByzantine(pid, p)},
            ),
            LockstepScheduler(),
        )
        assert outcome.agreement_holds


class TestCrashFaults:
    def test_crash_during_run(self):
        model = FaultModel(3, 0, 1)
        params = build_class_parameters(AlgorithmClass.CLASS_2, model)
        schedule = CrashSchedule.crash_first_f(model, round_number=1, clean=False)
        outcome = run_instance(
            build_instance(
                params,
                {pid: f"v{pid}" for pid in model.processes},
            ),
            LockstepScheduler(),
            crash_schedule=schedule,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert 0 not in outcome.decisions  # the crashed process never decides


class TestSafetyUnderLoss:
    def test_agreement_survives_unconstrained_loss(self, pbft_model):
        """Safety must hold even when no communication predicate does."""
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        values = {pid: f"v{pid % 2}" for pid in range(3)}
        outcome = run_instance(
            build_instance(params, values, byzantine={3: "equivocator"}),
            LockstepScheduler(
                (
                    GoodBadSchedule.never_good(),
                    random_drop_behavior(random.Random(5), 0.4),
                )
            ),
            max_phases=6,
        )
        assert outcome.agreement_holds  # termination is NOT guaranteed


class TestLivenessAfterBadPeriod:
    def test_decides_once_good_period_starts(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        schedule = GoodBadSchedule.good_after(7)
        bad = random_drop_behavior(random.Random(3))
        values = {pid: f"v{pid % 2}" for pid in range(3)}
        outcome = run_instance(
            build_instance(params, values, byzantine={3: "equivocator"}),
            LockstepScheduler((schedule, bad)),
            max_phases=10,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        # No decision can complete before the good period's first full phase.
        assert outcome.rounds_to_last_decision >= 7


class TestConfigIntegration:
    def test_skip_first_selection_decides_faster(self, fab_model):
        params = build_class_parameters(AlgorithmClass.CLASS_1, fab_model)
        values = {pid: "same" for pid in fab_model.processes}
        plain = run_instance(build_instance(params, values), LockstepScheduler())
        skipped = run_instance(
            build_instance(
                params,
                values,
                config=GenericConsensusConfig(skip_first_selection=True),
            ),
            LockstepScheduler(),
        )
        assert skipped.agreement_holds and skipped.all_correct_decided
        assert (
            skipped.rounds_to_last_decision < plain.rounds_to_last_decision
        )
