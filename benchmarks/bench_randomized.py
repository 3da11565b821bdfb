"""Experiment A6 — Ben-Or randomized consensus (Section 6).

Measured claims: termination with probability 1 under a Prel-only adversary
(no good periods ever), in both the benign (TD = f + 1, n > 2f) and the
Byzantine (TD = 3b + 1, n > 4b) variants; agreement in every run; and the
Section-6 statement that class-3 parameter sets cannot be randomized.

Every run goes through :func:`repro.scenarios.run_scenario`: the ``Prel``
adversary is the ``async-prel`` comm kind, the coins are seeded per process
by ``build_instance`` from the run's seed.
"""

import statistics

import pytest

from repro.algorithms import build_ben_or
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.randomized import check_randomizable
from repro.core.types import FaultModel
from repro.scenarios import CommSpec, ScenarioSpec, run_scenario

PREL = CommSpec(kind="async-prel")


def run_prel(spec, values, seed, *, byzantine=(), max_phases=200):
    """One seeded run of ``spec`` under the ``Prel``-only adversary."""
    return run_scenario(
        ScenarioSpec(byzantine=byzantine, comm=PREL),
        spec.parameters,
        rng=seed,
        initial_values=values,
        config=spec.config,
        max_phases=max_phases,
    )


def test_benign_ben_or_terminates(benchmark):
    spec = build_ben_or(3)

    def run(seed=0):
        return run_prel(spec, {0: 1, 1: 0, 2: 1}, seed, max_phases=400)

    outcome = benchmark(run)
    assert outcome.agreement_holds
    assert outcome.all_correct_decided


def test_byzantine_ben_or_terminates(benchmark):
    spec = build_ben_or(8, b=1)
    values = {pid: pid % 2 for pid in range(7)}

    def run(seed=1):
        return run_prel(
            spec, values, seed, byzantine=("equivocator",), max_phases=400
        )

    outcome = benchmark(run)
    assert outcome.agreement_holds
    assert outcome.all_correct_decided


def test_phase_distribution_is_geometric_like(report):
    """Split inputs at n = 3: phases-to-decide spread over several values
    with a decreasing tail (the coin at work), every seed agreeing."""
    spec = build_ben_or(3)
    phases = []
    for seed in range(40):
        outcome = run_prel(spec, {0: 1, 1: 0, 2: 1}, seed, max_phases=400)
        assert outcome.agreement_holds, seed
        assert outcome.all_correct_decided, seed
        phases.append(outcome.phases_to_last_decision)
    report(
        "Ben-Or phases to decide over 40 seeds: "
        f"mean={statistics.mean(phases):.2f}, max={max(phases)}"
    )
    assert min(phases) == 1
    assert max(phases) > 1          # the adversary does force retries
    assert statistics.mean(phases) < 10  # …but expectation stays small


def test_unanimous_inputs_decide_immediately():
    """Unanimity: all-same inputs decide in phase 1 regardless of the coin."""
    spec = build_ben_or(3)
    for seed in range(10):
        outcome = run_prel(spec, {0: 1, 1: 1, 2: 1}, seed)
        assert outcome.decided_values == {1}
        assert outcome.phases_to_last_decision == 1


def test_class3_cannot_be_randomized():
    """Section 6: Algorithm 4 fails the strengthened FLV-liveness."""
    params = build_class_parameters(
        AlgorithmClass.CLASS_3, FaultModel(4, 1, 0)
    )
    assert not check_randomizable(params)
    with pytest.raises(ValueError, match="FLV-liveness"):
        run_scenario(
            ScenarioSpec(comm=PREL),
            params,
            rng=0,
            config=build_ben_or(3).config,
        )


def test_classes_1_and_2_can_be_randomized():
    for cls, model in (
        (AlgorithmClass.CLASS_1, FaultModel(6, 1, 0)),
        (AlgorithmClass.CLASS_2, FaultModel(5, 1, 0)),
    ):
        params = build_class_parameters(cls, model)
        assert check_randomizable(params)
