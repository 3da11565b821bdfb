"""PBFT: optimal-resilience Byzantine consensus with history certificates."""

import pytest

from repro.algorithms.pbft import build_pbft
from repro.faults import STRATEGY_REGISTRY


class TestBuilder:
    def test_bound(self):
        with pytest.raises(ValueError, match="n > 3b"):
            build_pbft(3, b=1)
        assert build_pbft(4, b=1).parameters.model.b == 1

    def test_default_b_is_maximal(self):
        assert build_pbft(4).parameters.model.b == 1
        assert build_pbft(7).parameters.model.b == 2

    def test_threshold_2b_plus_1(self):
        assert build_pbft(4).parameters.threshold == 3
        assert build_pbft(7).parameters.threshold == 5

    def test_full_state_footprint(self):
        assert build_pbft(4).parameters.state_footprint == (
            "vote",
            "ts",
            "history",
        )


class TestExecution:
    def test_decides_at_optimal_resilience(self):
        spec = build_pbft(4)
        outcome = spec.run(
            {0: "a", 1: "b", 2: "a"}, byzantine={3: "equivocator"}
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.phases_to_last_decision == 1

    @pytest.mark.parametrize("strategy", sorted(STRATEGY_REGISTRY))
    def test_tolerates_every_strategy_at_max_b(self, strategy):
        spec = build_pbft(4)
        outcome = spec.run(
            {pid: f"v{pid % 2}" for pid in range(3)}, byzantine={3: strategy}
        )
        assert outcome.agreement_holds, strategy
        assert outcome.all_correct_decided, strategy

    def test_b2_with_seven(self):
        spec = build_pbft(7)
        outcome = spec.run(
            {pid: f"v{pid % 2}" for pid in range(5)},
            byzantine={5: "fake-history-liar", 6: "equivocator"},
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided

    def test_history_accumulates_across_phases(self):
        """PBFT's price for n > 3b: the unbounded history variable."""
        import random

        from repro.rounds.policies import random_drop_behavior
        from repro.rounds.schedule import GoodBadSchedule

        spec = build_pbft(4)
        outcome = spec.run(
            {pid: f"v{pid % 2}" for pid in range(3)},
            byzantine={3: "equivocator"},
            good_bad=(
                GoodBadSchedule.good_after(10),
                random_drop_behavior(random.Random(1)),
            ),
            max_phases=10,
        )
        assert outcome.agreement_holds and outcome.all_correct_decided
        histories = [
            len(p.state.history) for p in outcome.honest_processes.values()
        ]
        # More than one phase ran, so histories logged multiple entries.
        assert max(histories) >= 2
