"""RunMetrics extraction."""

from repro.algorithms import build_fab_paxos, build_pbft
from repro.analysis.metrics import RunMetrics


def test_metrics_from_pbft_run():
    spec = build_pbft(4)
    outcome = spec.run({pid: f"v{pid % 2}" for pid in range(4)})
    metrics = RunMetrics.from_outcome(outcome)
    assert metrics.rounds_executed == 3
    assert metrics.rounds_to_last_decision == 3
    assert metrics.phases_to_last_decision == 1
    assert metrics.decided_count == 4
    assert metrics.state_footprint == ("vote", "ts", "history")
    assert metrics.messages_sent > 0


def test_metrics_reflect_round_count_difference():
    fab = build_fab_paxos(6)
    pbft = build_pbft(4)
    fab_metrics = RunMetrics.from_outcome(
        fab.run({pid: "v" for pid in range(6)})
    )
    pbft_metrics = RunMetrics.from_outcome(
        pbft.run({pid: "v" for pid in range(4)})
    )
    assert fab_metrics.rounds_executed == 2  # class 1: 2 rounds/phase
    assert pbft_metrics.rounds_executed == 3  # class 3: 3 rounds/phase


def test_history_size_tracked():
    spec = build_pbft(4)
    outcome = spec.run({pid: "v" for pid in range(4)})
    metrics = RunMetrics.from_outcome(outcome)
    assert metrics.max_history_size >= 1


def test_describe():
    spec = build_pbft(4)
    metrics = RunMetrics.from_outcome(spec.run({pid: "v" for pid in range(4)}))
    assert "rounds=3" in metrics.describe()
