"""The Section 2.3 properties: hand-built cases of ``evaluate_properties``."""

import pytest

from repro.analysis.invariants import evaluate_properties
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel
from repro.engine import LockstepScheduler, build_instance, run_instance

NONE = frozenset()


def verdict(decided, initial, byzantine=NONE, correct=None):
    return evaluate_properties(
        decided_values=decided,
        initial_values=initial,
        byzantine=byzantine,
        correct=set(decided) if correct is None else correct,
    )


@pytest.mark.parametrize(
    "prop, holds, decided, initial, byzantine, correct",
    [
        ("agreement", True, {0: "v", 1: "v"}, {0: "v", 1: "w"}, NONE, None),
        ("agreement", False, {0: "v", 1: "w"}, {0: "v", 1: "w"}, NONE, None),
        ("agreement", True, {}, {0: "v"}, NONE, None),
        ("validity", True, {0: "a"}, {0: "a", 1: "b"}, NONE, None),
        ("validity", False, {0: "z"}, {0: "a", 1: "b"}, NONE, None),
        # vacuous with a Byzantine process
        ("validity", True, {0: "z"}, {0: "a"}, frozenset({3}), None),
        ("unanimity", False, {0: "z"}, {0: "a", 1: "a"}, NONE, None),
        # vacuous on split proposals
        ("unanimity", True, {0: "z"}, {0: "a", 1: "b"}, NONE, None),
        # Byzantine proposals are ignored
        ("unanimity", True, {0: "a"}, {0: "a", 1: "a", 2: "poison"},
         frozenset({2}), None),
        ("termination", True, {0: "v", 1: "v"}, {0: "v", 1: "v"}, NONE, {0, 1}),
        ("termination", False, {0: "v"}, {0: "v", 1: "v"}, NONE, {0, 1}),
    ],
)
def test_property(prop, holds, decided, initial, byzantine, correct):
    assert verdict(decided, initial, byzantine, correct)[prop] is holds


def test_integrity_each_process_decides_at_most_once():
    """Processes keep running (and re-receiving decision messages) for
    phases after they decide; the decision stream names each one once."""
    model = FaultModel(4, 1, 0)
    params = build_class_parameters(AlgorithmClass.CLASS_3, model)
    outcome = run_instance(
        build_instance(params, {pid: f"v{pid % 2}" for pid in model.processes}),
        LockstepScheduler(),
        max_phases=4,
        stop_when=lambda kernel: False,
    )
    fired = [d.process for r in outcome.trace.records for d in r.decisions]
    assert sorted(fired) == list(model.processes)
    assert outcome.phases_to_last_decision == 1
    assert outcome.rounds_executed == outcome.structure.rounds_for_phases(4)
