"""Experiments A1-A5 — the named instantiations of Section 5.

For each algorithm: the paper's parameterization, its resilience bound, the
phase structure, and the per-algorithm claims (OneThirdRule/FaB selection
improvements, MQB's no-history property, Paxos/PBFT kinship).
"""

import pytest

from repro.algorithms import (
    build_chandra_toueg,
    build_fab_paxos,
    build_mqb,
    build_one_third_rule,
    build_paxos,
    build_pbft,
)
from repro.algorithms.one_third_rule import OriginalOneThirdRuleProcess
from repro.core.flv_class1 import FLVClass1
from repro.core.flv_variants import FaBPaxosFLV
from repro.core.types import FaultModel, RoundInfo, RoundKind, SelectionMessage
from repro.engine import ExecutionKernel, LockstepScheduler
from repro.utils.sentinels import NULL_VALUE


def sel(vote):
    return SelectionMessage(vote, 0, frozenset({(vote, 0)}), frozenset())


# ----------------------------------------------------------------- A1: OTR


def test_one_third_rule_decides(benchmark):
    spec = build_one_third_rule(4)
    outcome = benchmark(spec.run, {0: "a", 1: "a", 2: "b", 3: "b"})
    assert outcome.agreement_holds and outcome.all_correct_decided
    assert outcome.rounds_to_last_decision == 2  # class 1: 2 rounds


def test_one_third_rule_improvement_claim():
    """§5.1: the instantiation selects in strictly more cases than Alg. 5."""
    model = FaultModel(6, 0, 1)
    from repro.algorithms.one_third_rule import one_third_rule_threshold

    flv = FLVClass1(model, one_third_rule_threshold(model))
    # 4 messages is NOT more than 2n/3 = 4: Algorithm 5 never selects here…
    vector = [sel("v")] * 4
    assert 3 * len(vector) <= 2 * model.n
    # …while the instantiated FLV does.
    assert flv.evaluate(vector) == "v"


def test_one_third_rule_original_matches_decisions(benchmark):
    """Both versions decide the same value under full synchrony."""
    model = FaultModel(4, 0, 1)
    values = {0: "a", 1: "a", 2: "a", 3: "b"}

    def run_original():
        processes = {
            pid: OriginalOneThirdRuleProcess(pid, values[pid], model)
            for pid in range(4)
        }
        engine = ExecutionKernel(
            model,
            processes,
            LockstepScheduler(),
            lambda r: RoundInfo(r, r, RoundKind.SELECTION),
        )
        engine.run(3)
        return processes

    processes = benchmark(run_original)
    assert {p.decided for p in processes.values()} == {"a"}
    spec = build_one_third_rule(4)
    outcome = spec.run(values)
    assert outcome.decided_values == {"a"}


# ----------------------------------------------------- A2: FaB Paxos


def test_fab_paxos_two_round_decision(benchmark):
    spec = build_fab_paxos(6)
    values = {pid: f"v{pid % 2}" for pid in range(5)}
    outcome = benchmark(spec.run, values, byzantine={5: "equivocator"})
    assert outcome.agreement_holds and outcome.all_correct_decided
    assert outcome.rounds_to_last_decision == 2


def test_fab_footnote13_improvement():
    """n=7, b=1: original needs 4 matching messages, Algorithm 6 needs 3."""
    model = FaultModel(7, 1, 0)
    flv = FaBPaxosFLV(model)
    original_required = -((model.n - model.b + 1) // -2)  # ⌈(n−b+1)/2⌉ = 4
    assert original_required == 4
    vector = [sel("v")] * 3 + [sel("w")] * 2
    assert flv.evaluate(vector) == "v"  # 3 < 4 suffice for the instantiation


def test_fab_requires_n_gt_5b():
    with pytest.raises(ValueError):
        build_fab_paxos(5, b=1)


# ----------------------------------------------------------- A3: MQB


def test_mqb_decides_in_fab_impossible_territory(benchmark):
    """The headline result: n = 4b + 1 Byzantine consensus w/o history."""
    spec = build_mqb(5)
    values = {pid: f"v{pid % 2}" for pid in range(4)}
    outcome = benchmark(spec.run, values, byzantine={4: "high-ts-liar"})
    assert outcome.agreement_holds and outcome.all_correct_decided
    assert spec.parameters.state_footprint == ("vote", "ts")


def test_mqb_message_size_advantage_over_pbft():
    """MQB ships no history: its selection messages stay O(1) while PBFT's
    grow with the phase count."""
    import random

    from repro.rounds.policies import random_drop_behavior
    from repro.rounds.schedule import GoodBadSchedule

    for builder, n, expect_history in ((build_mqb, 5, False), (build_pbft, 4, True)):
        spec = builder(n)
        outcome = spec.run(
            {pid: f"v{pid % 2}" for pid in range(n - 1)},
            byzantine={n - 1: "equivocator"},
            good_bad=(
                GoodBadSchedule.good_after(10),
                random_drop_behavior(random.Random(0)),
            ),
            max_phases=10,
        )
        process = next(iter(outcome.honest_processes.values()))
        message = process.send(RoundInfo(100, 34, RoundKind.SELECTION))
        history_len = len(next(iter(message.values())).history)
        if expect_history:
            assert history_len >= 1
        else:
            assert history_len == 0


# ----------------------------------------------------------- A4: Paxos


def test_paxos_leader_based_decision(benchmark):
    spec = build_paxos(3)
    outcome = benchmark(spec.run, {0: "a", 1: "b", 2: "c"})
    assert outcome.agreement_holds and outcome.all_correct_decided
    assert outcome.phases_to_last_decision == 1


def test_chandra_toueg_rotating_coordinator(benchmark):
    spec = build_chandra_toueg(3)
    outcome = benchmark(spec.run, {0: "a", 1: "b", 2: "c"})
    assert outcome.agreement_holds and outcome.all_correct_decided


# ----------------------------------------------------------- A5: PBFT


def test_pbft_optimal_resilience(benchmark):
    spec = build_pbft(4)
    values = {0: "a", 1: "b", 2: "a"}
    outcome = benchmark(spec.run, values, byzantine={3: "fake-history-liar"})
    assert outcome.agreement_holds and outcome.all_correct_decided
    assert outcome.phases_to_last_decision == 1


def test_pbft_and_paxos_share_the_class3_selection_rule():
    """§5.3: both selection rounds derive from the class-3 FLV — on benign
    vectors Paxos's FLV and PBFT's FLV agree whenever both are defined."""
    from repro.core.flv_variants import PaxosFLV

    paxos_model = FaultModel(4, 0, 1)
    paxos_flv = PaxosFLV(paxos_model)
    pbft_flv = build_pbft(4).parameters.flv
    cert = frozenset({("x", 2)})
    vectors = [
        [SelectionMessage("x", 2, cert, frozenset())] * 3,
        [SelectionMessage("x", 0, frozenset({("x", 0)}), frozenset())] * 3,
    ]
    for vector in vectors:
        p = paxos_flv.evaluate(vector)
        q = pbft_flv.evaluate(vector)
        if p is not NULL_VALUE and q is not NULL_VALUE:
            from repro.utils.sentinels import ANY_VALUE

            assert p == q or p is ANY_VALUE or q is ANY_VALUE


def test_resilience_ladder():
    """n required for b = 1: FaB 6 > MQB 5 > PBFT 4 — the paper's ladder."""
    assert build_fab_paxos(6).parameters.model.n == 6
    assert build_mqb(5).parameters.model.n == 5
    assert build_pbft(4).parameters.model.n == 4
    for builder, n in ((build_fab_paxos, 5), (build_mqb, 4), (build_pbft, 3)):
        with pytest.raises(ValueError):
            builder(n, b=1)
