"""Experiment X3 — message complexity per phase across the classes.

Derived metric: with the Π selector every round is all-to-all (n² messages),
so a class-1 phase costs 2n² and a class-2/3 phase costs up to 3n² (the
validation round only carries validator messages).  Leader-based benign
algorithms are cheaper: selection sends n messages to the leader, only the
leader speaks in validation.
"""


from repro.algorithms import build_fab_paxos, build_mqb, build_paxos, build_pbft
from repro.analysis.metrics import RunMetrics


def messages_for(spec, byzantine=None):
    model = spec.parameters.model
    byzantine = byzantine or {}
    values = {
        pid: f"v{pid % 2}" for pid in model.processes if pid not in byzantine
    }
    outcome = spec.run(values, byzantine=byzantine)
    assert outcome.agreement_holds and outcome.all_correct_decided
    return RunMetrics.from_outcome(outcome), outcome


def test_class1_phase_cost(benchmark, report):
    spec = build_fab_paxos(6)
    metrics, _ = benchmark(messages_for, spec)
    n = 6
    report(f"FaB Paxos n=6 fault-free: {metrics.messages_sent} messages")
    # 2 all-to-all rounds: selection n² + decision n².
    assert metrics.messages_sent == 2 * n * n


def test_class3_phase_cost(benchmark, report):
    spec = build_pbft(4)
    metrics, _ = benchmark(messages_for, spec)
    n = 4
    report(f"PBFT n=4 fault-free: {metrics.messages_sent} messages")
    # Selection n² + validation n·n (all validators under Π) + decision n².
    assert metrics.messages_sent == 3 * n * n


def test_leader_based_is_cheaper(report):
    paxos_metrics, _ = messages_for(build_paxos(5))
    n = 5
    # Selection: n messages to the leader; validation: leader to all (n);
    # decision: all-to-all (n²).
    expected = n + n + n * n
    report(f"Paxos n=5 fault-free: {paxos_metrics.messages_sent} messages "
           f"(expected {expected})")
    assert paxos_metrics.messages_sent == expected


def test_mqb_messages_smaller_than_pbft_bytes(report):
    """Same count shape as PBFT but no history payloads (size advantage)."""
    mqb_metrics, mqb_out = messages_for(
        build_mqb(5), byzantine={4: "equivocator"}
    )
    pbft_metrics, pbft_out = messages_for(
        build_pbft(4), byzantine={3: "equivocator"}
    )
    # Histories on the wire: MQB none, PBFT at least the initial pairs.
    from repro.core.types import RoundInfo, RoundKind

    mqb_msg = next(iter(mqb_out.honest_processes.values())).send(
        RoundInfo(4, 2, RoundKind.SELECTION)
    )
    pbft_msg = next(iter(pbft_out.honest_processes.values())).send(
        RoundInfo(4, 2, RoundKind.SELECTION)
    )
    mqb_hist = len(next(iter(mqb_msg.values())).history)
    pbft_hist = len(next(iter(pbft_msg.values())).history)
    report(f"history entries on the wire: MQB {mqb_hist}, PBFT {pbft_hist}")
    assert mqb_hist == 0
    assert pbft_hist >= 1


def test_per_round_accounting():
    spec = build_pbft(4)
    metrics, outcome = messages_for(spec)
    per_round = [r.sent_count for r in outcome.trace.records]
    assert per_round == [16, 16, 16]
