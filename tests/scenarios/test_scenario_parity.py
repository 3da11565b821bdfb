"""Scenario-compilation parity: a compiled preset ≡ the hand-built run.

Each case assembles an execution by hand (explicit Byzantine placement,
hand-built ``(schedule, edge rule)`` pair over a seeded RNG, explicit crash schedule) and
asserts that the registry preset, compiled by :func:`compile_scenario` and
run by :func:`run_scenario` under the same seed, produces the identical
outcome — placement, RNG-stream consumption and horizon included.
"""

import random
from dataclasses import replace

import pytest

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.faults.crash import CrashSchedule
from repro.rounds.policies import partition_behavior, random_drop_behavior
from repro.rounds.schedule import GoodBadSchedule
from repro.scenarios import compile_scenario, get_scenario, run_scenario


def outcome_signature(outcome):
    """Everything the sweeps read off a scenario outcome."""
    return (
        {pid: d.value for pid, d in outcome.decisions.items()},
        {pid: d.round for pid, d in outcome.decisions.items()},
        outcome.agreement_holds,
        outcome.all_correct_decided,
        outcome.rounds_to_last_decision,
        outcome.rounds_executed,
    )


def hand_built(params, byzantine, good_bad, max_phases, crash_schedule=None):
    model = params.model
    values = {
        pid: f"v{pid % 2}" for pid in model.processes if pid not in byzantine
    }
    return run_instance(
        build_instance(params, values, byzantine=byzantine),
        LockstepScheduler(good_bad),
        max_phases=max_phases,
        crash_schedule=crash_schedule,
    )


def bad_prefix(name, good_from):
    """The preset with its bad prefix ending at ``good_from``."""
    spec = get_scenario(name)
    return replace(
        spec,
        comm=replace(spec.comm, good_from=good_from),
        max_phases=good_from + 8,
    )


@pytest.fixture
def params7():
    return build_class_parameters(AlgorithmClass.CLASS_3, FaultModel(7, 2, 0))


class TestPresetParity:
    def test_worst_case(self, params7):
        model = params7.model
        strategies = [
            "equivocator", "high-ts-liar", "fake-history-liar", "adaptive-liar",
        ]
        byzantine = {
            model.n - 1 - i: strategies[i % len(strategies)]
            for i in range(model.b)
        }
        by_hand = hand_built(params7, byzantine, None, 15)
        # Max-b placement, strongest strategy per slot.
        compiled = compile_scenario(get_scenario("worst_case"), model)
        assert compiled.byzantine == byzantine
        modern = run_scenario("worst_case", params7)
        assert outcome_signature(modern) == outcome_signature(by_hand)
        assert modern.all_correct_decided
        assert modern.phases_to_last_decision == 1

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("heal_round", [5, 7])
    def test_partition_heal(self, params7, heal_round, seed):
        model = params7.model
        half = model.n // 2
        good_bad = (
            GoodBadSchedule.good_after(heal_round),
            partition_behavior([range(half), range(half, model.n)]),
        )
        by_hand = hand_built(
            params7, {model.n - 1: "equivocator"}, good_bad, heal_round + 8
        )
        modern = run_scenario(
            bad_prefix("partition_heal", heal_round), params7, rng=seed
        )
        assert outcome_signature(modern) == outcome_signature(by_hand)
        # The partition delays the decision past the heal round.
        assert modern.all_correct_decided
        assert modern.rounds_to_last_decision >= heal_round

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_async_then_sync_random_loss_stream(self, params7, seed):
        """The bad-period drop draws must consume the seeded RNG exactly as
        a hand-built drop rule over the same seed does."""
        model = params7.model
        gst_round = 9
        good_bad = (
            GoodBadSchedule.good_after(gst_round),
            random_drop_behavior(random.Random(seed)),
        )
        by_hand = hand_built(
            params7, {model.n - 1: "adaptive-liar"}, good_bad, gst_round + 8
        )
        modern = run_scenario(
            bad_prefix("async_then_sync", gst_round), params7, rng=seed
        )
        assert outcome_signature(modern) == outcome_signature(by_hand)
        assert modern.agreement_holds and modern.all_correct_decided

    def test_silent_minority(self):
        model = FaultModel(5, 1, 0)
        params = build_class_parameters(AlgorithmClass.CLASS_2, model)
        byzantine = {model.n - 1 - i: "silent" for i in range(model.b)}
        by_hand = hand_built(params, byzantine, None, 15)
        modern = run_scenario("silent_minority", params)
        assert outcome_signature(modern) == outcome_signature(by_hand)
        assert modern.all_correct_decided

    def test_crash_storm(self):
        model = FaultModel(5, 0, 2)
        params = build_class_parameters(AlgorithmClass.CLASS_2, model)
        by_hand = hand_built(
            params,
            {},
            None,
            15,
            crash_schedule=CrashSchedule.crash_first_f(model, 1, clean=False),
        )
        modern = run_scenario("crash_storm", params)
        assert outcome_signature(modern) == outcome_signature(by_hand)
        assert modern.agreement_holds and modern.all_correct_decided
        assert len(modern.decisions) == 3  # the two crashed never decide


def test_unknown_preset_name():
    with pytest.raises(ValueError, match="unknown scenario"):
        get_scenario("nonsense")
