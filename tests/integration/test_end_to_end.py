"""Cross-substrate integration scenarios.

Each test wires several subsystems together the way a downstream user
would: non-static selectors with the dynamic validator-election path,
Byzantine members *inside* the selector set, the Pcons stack under bad
periods, timed runs with crashes, and lemma checking over adversarial
multi-phase executions.
"""

import random

import pytest

from repro.analysis.lemmas import check_all_lemmas
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.selector import RotatingSubsetSelector
from repro.core.types import FaultModel
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.faults.crash import CrashEvent, CrashSchedule
from repro.rounds.policies import random_drop_behavior
from repro.rounds.schedule import GoodBadSchedule


class TestRotatingSubsetSelectors:
    """Section 4.2's Byzantine option: rotating sets of b + 1 validators.

    Exercises the dynamic paths of Algorithm 1 — line 15 (selector-set
    quorum) and line 21 (b + 1 matching validator announcements) — which
    static Π selectors optimize away.
    """

    def make_params(self, model):
        return build_class_parameters(
            AlgorithmClass.CLASS_2,
            model,
            selector=RotatingSubsetSelector(model, size=model.b + 1),
        )

    def test_decides_with_honest_selector_set(self):
        model = FaultModel(5, 1, 0)
        params = self.make_params(model)
        outcome = run_instance(
            build_instance(
                params,
                {pid: f"v{pid % 2}" for pid in range(4)},
                byzantine={4: "equivocator"},
            ),
            LockstepScheduler(),
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 1  # phase-1 set {1, 2} honest

    def test_byzantine_validator_stalls_only_its_phase(self):
        model = FaultModel(5, 1, 0)
        params = self.make_params(model)
        # Process 1 sits in the phase-1 selector set {1, 2}: that phase
        # cannot validate (SL3 fails); phase 2's set {2, 3} succeeds.
        outcome = run_instance(
            build_instance(
                params,
                {pid: f"v{pid % 2}" for pid in (0, 2, 3, 4)},
                byzantine={1: "equivocator"},
            ),
            LockstepScheduler(),
            max_phases=6,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 2

    def test_silent_validator_phase_recovery(self):
        model = FaultModel(5, 1, 0)
        params = self.make_params(model)
        outcome = run_instance(
            build_instance(
                params,
                {pid: f"v{pid % 2}" for pid in (0, 2, 3, 4)},
                byzantine={1: "silent"},
            ),
            LockstepScheduler(),
            max_phases=6,
        )
        assert outcome.all_correct_decided

    def test_lemmas_hold_with_dynamic_selectors(self):
        model = FaultModel(5, 1, 0)
        params = self.make_params(model)
        outcome = run_instance(
            build_instance(
                params,
                {pid: f"v{pid % 2}" for pid in (0, 2, 3, 4)},
                byzantine={1: "adaptive-liar"},
            ),
            LockstepScheduler(),
            max_phases=6,
        )
        assert outcome.all_correct_decided
        check_all_lemmas(outcome)


class TestCombinedFaultLoads:
    def test_byzantine_plus_crash(self):
        """b = 1 and f = 1 simultaneously: class 3 needs n > 3b + 2f = 5."""
        model = FaultModel(6, 1, 1)
        params = build_class_parameters(AlgorithmClass.CLASS_3, model)
        schedule = CrashSchedule(model, [CrashEvent(0, 2, frozenset())])
        outcome = run_instance(
            build_instance(
                params,
                {pid: f"v{pid % 2}" for pid in range(5)},
                byzantine={5: "equivocator"},
            ),
            LockstepScheduler(),
            max_phases=6,
            crash_schedule=schedule,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert 0 not in outcome.decisions

    def test_class2_mixed_envelope(self):
        """Class 2 at n > 4b + 2f: n = 8 with b = 1, f = 1."""
        model = FaultModel(8, 1, 1)
        params = build_class_parameters(AlgorithmClass.CLASS_2, model)
        schedule = CrashSchedule(model, [CrashEvent(0, 1)])
        outcome = run_instance(
            build_instance(
                params,
                {pid: f"v{pid % 2}" for pid in range(7)},
                byzantine={7: "high-ts-liar"},
            ),
            LockstepScheduler(),
            crash_schedule=schedule,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided

    def test_class1_mixed_envelope(self):
        """Class 1 at n > 5b + 3f: n = 9 with b = 1, f = 1."""
        model = FaultModel(9, 1, 1)
        params = build_class_parameters(AlgorithmClass.CLASS_1, model)
        schedule = CrashSchedule(model, [CrashEvent(2, 1, frozenset())])
        outcome = run_instance(
            build_instance(
                params,
                {pid: f"v{pid % 2}" for pid in range(8)},
                byzantine={8: "equivocator"},
            ),
            LockstepScheduler(),
            crash_schedule=schedule,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided


class TestStackUnderPartialSynchrony:
    def test_pcons_stack_with_alternating_schedule(self):
        from repro.algorithms import build_pbft
        from repro.scenarios import CommSpec, ScenarioSpec
        from repro.scenarios.compile import compile_scenario

        spec = build_pbft(4)
        scenario = ScenarioSpec(
            name="alternating-drop",
            byzantine=("equivocator",),
            comm=CommSpec(kind="good-bad", schedule="alternating", good_len=10,
                          bad_len=3, bad="drop", drop_prob=0.7),
        )
        compiled = compile_scenario(
            scenario, spec.parameters.model, "pcons-sigfree", rng=2
        )
        assert compiled.byzantine == {3: "equivocator"}
        outcome = run_instance(
            build_instance(
                spec.parameters,
                {pid: f"v{pid % 2}" for pid in range(3)},
                byzantine=compiled.byzantine,
            ),
            compiled.scheduler,
            max_phases=12,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        check_all_lemmas(outcome)


class TestTimedWithByzantine:
    def test_fab_timed_with_adversary_and_late_gst(self):
        from repro.algorithms import build_fab_paxos
        from repro.engine import TimedScheduler
        from repro.eventsim import NetworkSpec

        spec = build_fab_paxos(6)
        network = NetworkSpec(gst=12.0, pre_gst_delay_prob=0.7).build(9)
        outcome = run_instance(
            build_instance(
                spec.parameters,
                {pid: f"v{pid % 2}" for pid in range(5)},
                byzantine={5: "adaptive-liar"},
            ),
            TimedScheduler(network),
            max_phases=30,
            observe="metrics",
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.last_decision_time > 12.0


class TestDeterminism:
    """Identical seeds must give byte-identical outcomes (debuggability)."""

    def run_once(self, seed):
        model = FaultModel(4, 1, 0)
        params = build_class_parameters(AlgorithmClass.CLASS_3, model)
        good_bad = (
            GoodBadSchedule.good_after(5),
            random_drop_behavior(random.Random(seed)),
        )
        outcome = run_instance(
            build_instance(
                params,
                {pid: f"v{pid % 2}" for pid in range(3)},
                byzantine={3: "equivocator"},
            ),
            LockstepScheduler(good_bad),
            max_phases=8,
        )
        return (
            tuple(sorted((pid, d.value) for pid, d in outcome.decisions.items())),
            outcome.rounds_to_last_decision,
            # Delivered counts expose the bad-period randomness (sent counts
            # are structural and identical across seeds).
            outcome.messages_delivered,
        )

    def test_repeatable(self):
        assert self.run_once(3) == self.run_once(3)

    def test_seed_sensitivity(self):
        results = {self.run_once(seed) for seed in range(6)}
        assert len(results) > 1  # bad-period drops genuinely differ
