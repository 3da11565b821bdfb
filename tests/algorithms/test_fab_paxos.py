"""FaB Paxos: n > 5b, 2 rounds per phase, vote-only state."""

import pytest

from repro.algorithms.fab_paxos import build_fab_paxos
from repro.faults import STRATEGY_REGISTRY


class TestBuilder:
    def test_bound(self):
        with pytest.raises(ValueError, match="n > 5b"):
            build_fab_paxos(5, b=1)
        assert build_fab_paxos(6, b=1).parameters.model.b == 1

    def test_default_b_is_maximal(self):
        assert build_fab_paxos(6).parameters.model.b == 1
        assert build_fab_paxos(11).parameters.model.b == 2

    def test_threshold(self):
        # ⌈(n + 3b + 1)/2⌉ = ⌈10/2⌉ = 5 for n=6, b=1.
        assert build_fab_paxos(6).parameters.threshold == 5

    def test_two_rounds_per_phase(self):
        assert build_fab_paxos(6).parameters.rounds_per_phase == 2

    def test_vote_only_state(self):
        assert build_fab_paxos(6).parameters.state_footprint == ("vote",)


class TestExecution:
    def test_decides_in_two_rounds_fault_free(self):
        spec = build_fab_paxos(6)
        outcome = spec.run({pid: f"v{pid % 2}" for pid in range(6)})
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.rounds_to_last_decision == 2

    @pytest.mark.parametrize("strategy", sorted(STRATEGY_REGISTRY))
    def test_tolerates_every_strategy_at_max_b(self, strategy):
        spec = build_fab_paxos(6)
        outcome = spec.run(
            {pid: f"v{pid % 2}" for pid in range(5)}, byzantine={5: strategy}
        )
        assert outcome.agreement_holds, strategy
        assert outcome.all_correct_decided, strategy

    def test_histories_never_grow(self):
        """Class 1 keeps no history — the message fields stay empty."""
        spec = build_fab_paxos(6)
        outcome = spec.run({pid: "v" for pid in range(6)})
        for process in outcome.honest_processes.values():
            # The state object exists but the instantiation never reads it;
            # the selection messages carry empty histories (field elision).
            pass
        from repro.core.types import RoundInfo, RoundKind

        process = next(iter(outcome.honest_processes.values()))
        message = process.send(RoundInfo(1, 1, RoundKind.SELECTION))[0]
        assert message.history == frozenset()
        assert message.ts == 0

    def test_two_byzantine_needs_eleven(self):
        spec = build_fab_paxos(11, b=2)
        outcome = spec.run(
            {pid: f"v{pid % 2}" for pid in range(9)},
            byzantine={9: "equivocator", 10: "vote-flipper"},
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
