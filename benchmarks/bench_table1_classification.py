"""Experiment T1 — Table 1: the three classes of consensus algorithms.

For each class we verify, at the minimal Byzantine configuration:

* the resilience bound (minimal ``n`` admitted; ``n − 1`` rejected),
* the rounds-per-phase column (measured from the execution trace),
* the process-state column (measured from what travels on the wire),
* agreement + termination in one phase under synchrony with an active
  Byzantine adversary,

and benchmark the canonical run of each class.
"""

import pytest

from repro.analysis.metrics import RunMetrics
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.parameters import ParameterError
from repro.core.types import FaultModel
from repro.engine import LockstepScheduler, build_instance, run_instance

B, F = 1, 0
CASES = [
    (AlgorithmClass.CLASS_1, 6, 2, ("vote",)),
    (AlgorithmClass.CLASS_2, 5, 3, ("vote", "ts")),
    (AlgorithmClass.CLASS_3, 4, 3, ("vote", "ts", "history")),
]


@pytest.mark.parametrize("cls,min_n,rounds,state", CASES)
def test_table1_row(benchmark, cls, min_n, rounds, state):
    # n column: minimal n admitted, below rejected.
    assert cls.min_processes(B, F) == min_n
    with pytest.raises(ParameterError):
        build_class_parameters(cls, FaultModel(min_n - 1, B, F))

    model = FaultModel(min_n, B, F)
    params = build_class_parameters(cls, model)

    # Rounds-per-phase and state columns.
    assert params.rounds_per_phase == rounds
    assert params.state_footprint == state

    values = {pid: f"v{pid % 2}" for pid in range(min_n - 1)}

    def run():
        return run_instance(
            build_instance(
                params,
                values,
                byzantine={min_n - 1: "equivocator"},
            ),
            LockstepScheduler(),
        )

    outcome = benchmark(run)
    metrics = RunMetrics.from_outcome(outcome)
    assert outcome.agreement_holds
    assert outcome.all_correct_decided
    # One good phase suffices; the trace confirms the rounds column.
    assert metrics.rounds_to_last_decision == rounds
    assert metrics.phases_to_last_decision == 1


@pytest.mark.parametrize(
    "cls,b,f,expected_n",
    [
        (AlgorithmClass.CLASS_1, 2, 0, 11),
        (AlgorithmClass.CLASS_1, 0, 2, 7),
        (AlgorithmClass.CLASS_2, 2, 0, 9),
        (AlgorithmClass.CLASS_2, 0, 2, 5),
        (AlgorithmClass.CLASS_3, 2, 0, 7),
        (AlgorithmClass.CLASS_3, 0, 2, 5),  # 3b + 2f = 4 → 5
    ],
)
def test_n_bound_formula(cls, b, f, expected_n):
    """The n column generalizes: n > 5b+3f / 4b+2f / 3b+2f."""
    assert cls.min_processes(b, f) == expected_n


def test_benign_collapse_of_classes_2_and_3(benchmark):
    """Table 1's remark: with b = 0, classes 2 and 3 coincide (history
    adds nothing) — both decide identically at n = 2f + 1."""
    model = FaultModel(3, 0, 1)
    values = {0: "a", 1: "b", 2: "c"}
    p2 = build_class_parameters(AlgorithmClass.CLASS_2, model)
    p3 = build_class_parameters(AlgorithmClass.CLASS_3, model)

    def run_both():
        return (
            run_instance(build_instance(p2, values), LockstepScheduler()),
            run_instance(build_instance(p3, values), LockstepScheduler()),
        )

    out2, out3 = benchmark(run_both)
    assert out2.decided_values == out3.decided_values
    assert (
        out2.rounds_to_last_decision == out3.rounds_to_last_decision == 3
    )
