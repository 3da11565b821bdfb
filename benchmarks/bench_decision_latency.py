"""Experiment X2 — decision latency across the three classes.

Derived metric (the paper has no testbed): simulated time-to-decision over
the discrete-event runtime, fault-free and under Byzantine attack, plus the
GST sensitivity curve.  The shape to reproduce: class 1 (2 rounds/phase)
decides fastest per phase; everything stalls until the GST; one clean phase
after stabilization suffices.
"""

import pytest

from repro.algorithms import build_fab_paxos, build_mqb, build_paxos, build_pbft
from repro.engine import TimedScheduler, build_instance, run_instance
from repro.eventsim import PartialSynchronyNetwork, UniformLatency

ROUND = 2.5


def run_synchronous(spec, values, byzantine=None):
    """One metrics-mode timed run, synchronous from the start (GST 0)."""
    network = PartialSynchronyNetwork(
        UniformLatency(0.5, 2.0), gst=0.0, delta=2.0, seed=7
    )
    return run_instance(
        build_instance(spec.parameters, values, byzantine=byzantine),
        TimedScheduler(network, round_duration=ROUND),
        observe="metrics",
    )


@pytest.mark.parametrize(
    "builder,n,expected_rounds",
    [
        (build_fab_paxos, 6, 2),
        (build_mqb, 5, 3),
        (build_pbft, 4, 3),
        (build_paxos, 3, 3),
    ],
)
def test_latency_fault_free(benchmark, builder, n, expected_rounds):
    spec = builder(n)
    values = {pid: f"v{pid % 2}" for pid in range(n)}

    outcome = benchmark(run_synchronous, spec, values)
    assert outcome.agreement_holds and outcome.all_correct_decided
    assert outcome.rounds_executed == expected_rounds
    assert outcome.last_decision_time == pytest.approx(expected_rounds * ROUND)


def test_class1_beats_class3_per_phase(report):
    fab = run_synchronous(build_fab_paxos(6), {pid: "v" for pid in range(6)})
    pbft = run_synchronous(build_pbft(4), {pid: "v" for pid in range(4)})
    report(
        f"time to decide, fault-free: FaB {fab.last_decision_time:.1f} vs "
        f"PBFT {pbft.last_decision_time:.1f} (simulated units)"
    )
    assert fab.last_decision_time < pbft.last_decision_time


def test_gst_sensitivity_curve(report):
    """Decision time tracks the GST: the curve the model predicts.

    Runs as a campaign (one scenario per GST value, repetitions = 5 seeds
    per point) so the curve is a mean over derived-seed runs instead of a
    single trajectory.
    """
    from repro.campaigns import CampaignSpec, NetworkSpec, ScenarioSpec, run_campaign
    from repro.campaigns.aggregate import summarize

    gsts = (0.0, 15.0, 30.0)
    spec = CampaignSpec(
        name="gst-sensitivity",
        algorithms=("pbft",),
        models=((4, 1, 0),),
        engines=("timed",),
        scenarios=tuple(
            ScenarioSpec(
                byzantine=("equivocator",),
                timing=NetworkSpec(
                    gst=gst, pre_gst_delay_prob=0.85, round_duration=ROUND
                ),
            )
            for gst in gsts
        ),
        repetitions=5,
        seed=11,
        max_phases=40,
    )
    rows = run_campaign(spec, workers=2)
    assert all(row["status"] == "ok" for row in rows)
    assert all(row["agreement"] and row["termination"] for row in rows)
    summaries = summarize(rows, group_keys=("network",))
    by_network = {summary.key[0]: summary for summary in summaries}
    times = [
        by_network[scenario.describe_network()].mean_latency
        for scenario in spec.scenarios
    ]
    report(f"PBFT mean decision time vs GST {gsts}: {times}")
    assert times[0] < times[1] < times[2]
    # After the GST at most a few phases pass before deciding.
    assert times[2] < 30.0 + 6 * 3 * ROUND


def test_byzantine_attack_does_not_slow_good_phases(report):
    """Under synchrony a scripted adversary cannot delay decision."""
    spec = build_pbft(4)
    clean = run_synchronous(spec, {pid: f"v{pid % 2}" for pid in range(4)})
    attacked = run_synchronous(
        spec,
        {pid: f"v{pid % 2}" for pid in range(3)},
        byzantine={3: "equivocator"},
    )
    report(
        f"PBFT decision time clean {clean.last_decision_time:.1f} vs "
        f"attacked {attacked.last_decision_time:.1f}"
    )
    assert attacked.last_decision_time == clean.last_decision_time
