"""The algorithm registry and spec metadata."""

from repro.algorithms import ALGORITHM_BUILDERS
from repro.core.classification import classify


EXPECTED = {
    "one-third-rule",
    "fab-paxos",
    "mqb",
    "paxos",
    "chandra-toueg",
    "pbft",
    "ben-or",
}

MINIMAL_N = {
    "one-third-rule": 4,
    "fab-paxos": 6,
    "mqb": 5,
    "paxos": 3,
    "chandra-toueg": 3,
    "pbft": 4,
    "ben-or": 3,
}


def test_all_paper_algorithms_registered():
    assert set(ALGORITHM_BUILDERS) == EXPECTED


def test_specs_classify_consistently():
    """Each spec's derived Table-1 class matches the paper's assignment."""
    for name, builder in ALGORITHM_BUILDERS.items():
        spec = builder(MINIMAL_N[name])
        derived = classify(spec.parameters)
        assert derived is spec.algorithm_class, (
            f"{name}: paper says {spec.algorithm_class}, derived {derived}"
        )


def test_rounds_per_phase_matches_class():
    for name, builder in ALGORITHM_BUILDERS.items():
        spec = builder(MINIMAL_N[name])
        assert (
            spec.parameters.rounds_per_phase
            == spec.algorithm_class.rounds_per_phase
        )


def test_state_footprint_within_class_budget():
    """No algorithm uses more state variables than its class's column."""
    for name, builder in ALGORITHM_BUILDERS.items():
        spec = builder(MINIMAL_N[name])
        budget = set(spec.algorithm_class.state)
        assert set(spec.parameters.state_footprint) <= budget, name


def test_describe_mentions_name_and_section():
    spec = ALGORITHM_BUILDERS["mqb"](5)
    text = spec.describe()
    assert "MQB" in text and "5.2" in text


def test_spec_run_matches_a_direct_kernel_run():
    """AlgorithmSpec.run is build_instance + run_instance with the spec's
    own config: same decisions, same rounds, same invariant verdicts as the
    spelled-out call — including when the caller supplies Byzantine
    strategies and a phase bound.
    """
    from repro.engine import LockstepScheduler, build_instance, run_instance

    spec = ALGORITHM_BUILDERS["pbft"](4)
    for initial, byzantine, max_phases in (
        ({0: "a", 1: "b", 2: "b", 3: "a"}, None, 30),
        ({0: "a", 2: "b", 3: "a"}, {1: "equivocator"}, 12),
        ({0: "a", 2: "b", 3: "a"}, {1: "vote-flipper"}, 8),
    ):
        mine = spec.run(
            initial, byzantine=byzantine, max_phases=max_phases
        )
        direct = run_instance(
            build_instance(
                spec.parameters,
                initial,
                config=spec.config,
                byzantine=byzantine,
            ),
            LockstepScheduler(),
            max_phases=max_phases,
        )
        assert mine.decisions == direct.decisions
        assert mine.rounds_executed == direct.rounds_executed
        assert mine.decided_values == direct.decided_values
        assert dict(mine.invariant_report()) == dict(
            direct.invariant_report()
        )
