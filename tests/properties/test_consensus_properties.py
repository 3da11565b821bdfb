"""Whole-algorithm property tests: safety under randomized adversity.

These runs combine random initial values, random Byzantine strategy choices,
random delivery schedules (including never-good ones) and random crash
patterns.  *Agreement, validity and unanimity must hold in every single
execution*; termination is only asserted when a good suffix exists.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.faults import STRATEGY_REGISTRY
from repro.faults.crash import CrashEvent, CrashSchedule
from repro.rounds.policies import random_drop_behavior
from repro.rounds.schedule import GoodBadSchedule

CLASS_MODELS = [
    (AlgorithmClass.CLASS_1, FaultModel(6, 1, 0)),
    (AlgorithmClass.CLASS_2, FaultModel(5, 1, 0)),
    (AlgorithmClass.CLASS_3, FaultModel(4, 1, 0)),
]

STRATEGIES = sorted(STRATEGY_REGISTRY)


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(CLASS_MODELS) - 1),
    strategy=st.sampled_from(STRATEGIES),
    values_seed=st.integers(min_value=0, max_value=10**6),
    drop_seed=st.integers(min_value=0, max_value=10**6),
    drop_prob=st.floats(min_value=0.0, max_value=0.9),
)
def test_safety_never_violated_under_lossy_network(
    case, strategy, values_seed, drop_seed, drop_prob
):
    cls, model = CLASS_MODELS[case]
    params = build_class_parameters(cls, model)
    rng = random.Random(values_seed)
    byz_pid = model.n - 1
    values = {
        pid: rng.choice(["x", "y"])
        for pid in model.processes
        if pid != byz_pid
    }
    outcome = run_instance(
        build_instance(params, values, byzantine={byz_pid: strategy}),
        LockstepScheduler(
            (
                GoodBadSchedule.never_good(),
                random_drop_behavior(random.Random(drop_seed), drop_prob),
            )
        ),
        max_phases=5,
    )
    report = outcome.invariant_report()
    assert report["agreement"] and report["unanimity"]


@settings(max_examples=30, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(CLASS_MODELS) - 1),
    strategy=st.sampled_from(STRATEGIES),
    bad_prefix=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_liveness_with_good_suffix(case, strategy, bad_prefix, seed):
    cls, model = CLASS_MODELS[case]
    params = build_class_parameters(cls, model)
    rng = random.Random(seed)
    byz_pid = model.n - 1
    values = {
        pid: rng.choice(["x", "y"])
        for pid in model.processes
        if pid != byz_pid
    }
    good_bad = (
        GoodBadSchedule.good_after(bad_prefix + 1),
        random_drop_behavior(random.Random(seed)),
    )
    outcome = run_instance(
        build_instance(params, values, byzantine={byz_pid: strategy}),
        LockstepScheduler(good_bad),
        max_phases=bad_prefix + 8,
    )
    assert outcome.invariant_report()["agreement"]
    assert outcome.all_correct_decided, (
        f"{cls} with {strategy} failed to decide after the good period"
    )


@settings(max_examples=30, deadline=None)
@given(
    crash_round=st.integers(min_value=1, max_value=6),
    clean=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_benign_crash_patterns(crash_round, clean, seed):
    model = FaultModel(5, 0, 2)
    params = build_class_parameters(AlgorithmClass.CLASS_2, model)
    rng = random.Random(seed)
    values = {pid: rng.choice(["x", "y", "z"]) for pid in model.processes}
    schedule = CrashSchedule(
        model,
        [
            # Two crashes around the drawn round; the first may be unclean
            # (its crash-round messages are lost).
            CrashEvent(0, crash_round, None if clean else frozenset()),
            CrashEvent(1, crash_round + 1),
        ],
    )
    outcome = run_instance(
        build_instance(params, values),
        LockstepScheduler(),
        crash_schedule=schedule,
    )
    report = outcome.invariant_report()
    assert report["agreement"] and report["validity"]
    assert outcome.all_correct_decided


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    strategies=st.lists(st.sampled_from(STRATEGIES), min_size=2, max_size=2),
)
def test_two_byzantine_processes(seed, strategies):
    """b = 2: PBFT territory needs n = 7."""
    model = FaultModel(7, 2, 0)
    params = build_class_parameters(AlgorithmClass.CLASS_3, model)
    rng = random.Random(seed)
    values = {pid: rng.choice(["x", "y"]) for pid in range(5)}
    outcome = run_instance(
        build_instance(
            params,
            values,
            byzantine={5: strategies[0], 6: strategies[1]},
        ),
        LockstepScheduler(),
    )
    report = outcome.invariant_report()
    assert report["agreement"] and report["unanimity"]
    assert outcome.all_correct_decided
