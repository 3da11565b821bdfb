"""MQB — the paper's new n > 4b algorithm (Section 5.2)."""

import pytest

from repro.algorithms.mqb import build_mqb
from repro.faults import STRATEGY_REGISTRY
from repro.core.types import RoundInfo, RoundKind


class TestBuilder:
    def test_bound(self):
        with pytest.raises(ValueError, match="n > 4b"):
            build_mqb(4, b=1)
        assert build_mqb(5, b=1).parameters.model.b == 1

    def test_threshold(self):
        # ⌈(n + 2b + 1)/2⌉: n=5, b=1 → 4; n=9, b=2 → 7.
        assert build_mqb(5).parameters.threshold == 4
        assert build_mqb(9, b=2).parameters.threshold == 7

    def test_sits_between_fab_and_pbft(self):
        """The paper's headline: 4b < n ≤ 5b is MQB-only territory."""
        from repro.algorithms.fab_paxos import build_fab_paxos
        from repro.algorithms.pbft import build_pbft

        # n = 5, b = 1: FaB Paxos impossible, MQB fine.
        with pytest.raises(ValueError):
            build_fab_paxos(5, b=1)
        assert build_mqb(5, b=1)
        # PBFT also works at n = 5 but needs history; MQB does not:
        assert build_mqb(5).parameters.state_footprint == ("vote", "ts")
        assert build_pbft(5, b=1).parameters.state_footprint == (
            "vote",
            "ts",
            "history",
        )

    def test_no_history_on_the_wire(self):
        spec = build_mqb(5)
        outcome = spec.run({pid: "v" for pid in range(5)})
        process = next(iter(outcome.honest_processes.values()))
        message = process.send(RoundInfo(4, 2, RoundKind.SELECTION))[0]
        assert message.history == frozenset()  # ts travels, history doesn't
        assert message.ts == outcome.honest_processes[0].state.ts


class TestExecution:
    def test_three_rounds_per_phase(self):
        spec = build_mqb(5)
        outcome = spec.run({pid: f"v{pid % 2}" for pid in range(5)})
        assert outcome.rounds_to_last_decision == 3

    @pytest.mark.parametrize("strategy", sorted(STRATEGY_REGISTRY))
    def test_tolerates_every_strategy_at_max_b(self, strategy):
        spec = build_mqb(5)
        outcome = spec.run(
            {pid: f"v{pid % 2}" for pid in range(4)}, byzantine={4: strategy}
        )
        assert outcome.agreement_holds, strategy
        assert outcome.all_correct_decided, strategy

    def test_unanimity(self):
        spec = build_mqb(5)
        outcome = spec.run(
            {pid: "same" for pid in range(4)}, byzantine={4: "vote-flipper"}
        )
        assert outcome.decided_values == {"same"}

    def test_b2_configuration(self):
        spec = build_mqb(9, b=2)
        outcome = spec.run(
            {pid: f"v{pid % 2}" for pid in range(7)},
            byzantine={7: "high-ts-liar", 8: "equivocator"},
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
