"""Byzantine strategy library: each attack is exercised and contained."""

import random

import pytest

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import (
    DecisionMessage,
    FaultModel,
    RoundInfo,
    RoundKind,
    SelectionMessage,
    ValidationMessage,
    coerce_selection_message,
)
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.faults.byzantine import (
    AdaptiveLiar,
    Equivocator,
    FakeHistoryLiar,
    HighTimestampLiar,
    RandomNoise,
    SilentByzantine,
    VoteFlipper,
)
from repro.utils.det import _sort_key, deterministic_choice


@pytest.fixture
def params(pbft_model):
    return build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)


SEL = RoundInfo(1, 1, RoundKind.SELECTION)
VAL = RoundInfo(2, 1, RoundKind.VALIDATION)
DEC = RoundInfo(3, 1, RoundKind.DECISION)


class TestStrategyMechanics:
    def test_silent_sends_nothing(self, params):
        strategy = SilentByzantine(3, params)
        for info in (SEL, VAL, DEC):
            assert strategy.send(info) == {}

    def test_noise_is_unparseable_or_invalid(self, params):
        strategy = RandomNoise(3, params)
        out = strategy.send(SEL)
        assert len(out) == 4
        # Every payload must be rejected by the defensive parser.
        for payload in out.values():
            assert coerce_selection_message(payload) is None

    def test_equivocator_splits_receivers(self, params):
        strategy = Equivocator(3, params, values=("left", "right"))
        out = strategy.send(SEL)
        assert out[0].vote == "left"
        assert out[1].vote == "right"

    def test_equivocator_needs_two_values(self, params):
        with pytest.raises(ValueError):
            Equivocator(3, params, values=("only",))

    def test_vote_flipper_consistent_evil(self, params):
        strategy = VoteFlipper(3, params, evil_value="evil")
        sel = strategy.send(SEL)
        dec = strategy.send(DEC)
        assert all(m.vote == "evil" for m in sel.values())
        assert all(m.vote == "evil" for m in dec.values())
        assert all(m.ts == DEC.phase for m in dec.values())

    def test_high_ts_liar_claims_future(self, params):
        strategy = HighTimestampLiar(3, params, timestamp=999)
        out = strategy.send(SEL)
        assert all(m.ts == 999 for m in out.values())

    def test_fake_history_forges_certificates(self, params):
        strategy = FakeHistoryLiar(3, params, evil_value="evil")
        out = strategy.send(RoundInfo(7, 3, RoundKind.SELECTION))
        message = out[0]
        assert ("evil", 3) in message.history

    def test_adaptive_liar_observes_then_splits(self, params):
        strategy = AdaptiveLiar(3, params)
        strategy.receive(
            SEL,
            {
                0: SelectionMessage("pop", 0, frozenset(), frozenset()),
                1: SelectionMessage("pop", 0, frozenset(), frozenset()),
                2: SelectionMessage("rare", 0, frozenset(), frozenset()),
            },
        )
        out = strategy.send(DEC)
        votes = {m.vote for m in out.values()}
        assert votes == {"pop", "rare"}


    def test_adaptive_liar_breaks_ties_in_the_library_value_order(self, params):
        """Equal counts rank by ``_sort_key`` (type name, then repr) — the
        order value codes are assigned in — not by bare ``repr``, under which
        ``'9'`` (repr ``"'9'"``) would sort before ``10``."""
        strategy = AdaptiveLiar(3, params)
        strategy.receive(
            DEC, {0: DecisionMessage("9", 1), 1: DecisionMessage(10, 1)}
        )
        assert strategy._split_values() == (10, "9")
        assert deterministic_choice(["9", 10]) == 10

    def test_adaptive_liar_running_tally_equals_list_recount(self, params):
        """300 rounds of mixed inboxes: the running tally ranks exactly as
        re-counting the whole observation list on every send did."""
        rng = random.Random(8)
        strategy = AdaptiveLiar(3, params)
        observed = []
        for number in range(1, 301):
            kind = (RoundKind.SELECTION, RoundKind.VALIDATION, RoundKind.DECISION)[
                number % 3
            ]
            inbox = {}
            for sender in rng.sample(range(4), rng.randrange(5)):
                vote = rng.choice(["a", "b", "c", 7, "evil"])
                if kind is RoundKind.VALIDATION:
                    inbox[sender] = ValidationMessage(vote, frozenset())
                    continue
                if kind is RoundKind.SELECTION:
                    inbox[sender] = SelectionMessage(vote, 0, frozenset(), frozenset())
                else:
                    inbox[sender] = DecisionMessage(vote, 0)
                observed.append(vote)
            strategy.receive(RoundInfo(number, (number + 2) // 3, kind), inbox)
            counts = {}
            for vote in observed:
                counts[vote] = counts.get(vote, 0) + 1
            ranked = sorted(
                counts.items(), key=lambda item: (item[1], _sort_key(item[0]))
            )
            expected = (
                (ranked[0][0], ranked[-1][0]) if ranked else ("evil", "evil")
            )
            assert strategy._split_values() == expected, number


class TestAttackContainment:
    """Each strategy, at full strength b, cannot break safety or liveness."""

    @pytest.mark.parametrize(
        "strategy_cls",
        [
            SilentByzantine,
            RandomNoise,
            Equivocator,
            VoteFlipper,
            HighTimestampLiar,
            FakeHistoryLiar,
            AdaptiveLiar,
        ],
    )
    @pytest.mark.parametrize(
        "cls,model_args",
        [
            (AlgorithmClass.CLASS_1, (6, 1, 0)),
            (AlgorithmClass.CLASS_2, (5, 1, 0)),
            (AlgorithmClass.CLASS_3, (4, 1, 0)),
        ],
    )
    def test_contained(self, strategy_cls, cls, model_args):
        model = FaultModel(*model_args)
        params = build_class_parameters(cls, model)
        values = {pid: f"v{pid % 2}" for pid in range(model.n - 1)}
        strategy = strategy_cls(model.n - 1, params)
        outcome = run_instance(
            build_instance(params, values, byzantine={model.n - 1: strategy}),
            LockstepScheduler(),
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided

    def test_evil_value_never_decided_under_unanimity(self, params):
        """Unanimity: with all honest proposals equal, the Byzantine value
        can never be decided.  (With split honest proposals the paper
        permits adopting a Byzantine proposal — validity only binds the
        all-honest case.)"""
        values = {0: "good", 1: "good", 2: "good"}
        for strategy_name in ("vote-flipper", "high-ts-liar", "fake-history-liar"):
            outcome = run_instance(
                build_instance(params, values, byzantine={3: strategy_name}),
                LockstepScheduler(),
            )
            assert outcome.decided_values == {"good"}, strategy_name

    def test_byzantine_value_may_be_adopted_with_split_proposals(self, params):
        """Documents the model's permissiveness: with split honest proposals
        a Byzantine value sorting first in the deterministic choice can
        legitimately win (agreement still holds)."""
        values = {0: "x", 1: "y", 2: "x"}
        outcome = run_instance(
            build_instance(params, values, byzantine={3: "vote-flipper"}),
            LockstepScheduler(),
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
