"""Delivery oracles: predicate enforcement and adversarial delivery."""

import math
import random

import pytest

from repro.core.types import FaultModel, RoundInfo, RoundKind
from repro.engine.scheduler import LockstepScheduler, PrelScheduler
from repro.rounds.base import RunContext
from repro.rounds.policies import (
    enforce_pcons,
    faithful_delivery,
    partition_behavior,
    random_drop_behavior,
    silent_behavior,
)
from repro.rounds.predicates import check_pcons, check_pgood, check_prel
from repro.rounds.schedule import GoodBadSchedule

SEL = RoundInfo(1, 1, RoundKind.SELECTION)
DEC = RoundInfo(3, 1, RoundKind.DECISION)


def ctx_for(n=4, b=0, byz=()):
    return RunContext(FaultModel(n, b, 0), byzantine=frozenset(byz))


def all_to_all(n, payload_fn):
    return {s: {d: payload_fn(s) for d in range(n)} for s in range(n)}


class TestEnforcement:
    def test_pgood_is_faithful(self):
        ctx = ctx_for()
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = faithful_delivery(outbound)
        assert check_pgood(outbound, matrix, ctx.correct)
        assert matrix[2][3] == "m3"

    def test_pcons_collapses_equivocation(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        outbound = all_to_all(4, lambda s: f"m{s}")
        # Byzantine 3 equivocates:
        outbound[3] = {0: "lie-a", 1: "lie-b", 2: "lie-a", 3: "x"}
        matrix = enforce_pcons(outbound, ctx)
        assert check_pcons(outbound, matrix, ctx.correct)
        values = {matrix[p][3] for p in ctx.correct}
        assert len(values) == 1  # one canonical payload for sender 3

    def test_pcons_byzantine_receivers_see_raw_traffic(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        outbound = all_to_all(4, lambda s: f"m{s}")
        outbound[0] = {3: "secret", 1: "m0", 2: "m0", 0: "m0"}
        matrix = enforce_pcons(outbound, ctx)
        assert matrix[3][0] == "secret"

    def test_pcons_respects_restricted_audience(self):
        # Selection round addressed to {0, 1} only.
        ctx = ctx_for()
        outbound = {s: {0: f"m{s}", 1: f"m{s}"} for s in range(4)}
        matrix = enforce_pcons(outbound, ctx)
        assert set(matrix) == {0, 1}
        assert matrix[0] == matrix[1]


def never_good(rule):
    """A lockstep scheduler whose every round is bad under ``rule``."""
    return LockstepScheduler((GoodBadSchedule.never_good(), rule))


class TestLockstepGoodRounds:
    def test_pcons_on_selection_rounds(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        outbound = all_to_all(4, lambda s: f"m{s}")
        outbound[3] = {d: f"lie{d}" for d in range(4)}
        matrix = LockstepScheduler().deliver_round(SEL, outbound, ctx).matrix
        assert check_pcons(outbound, matrix, ctx.correct)

    def test_pgood_only_on_other_rounds(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        outbound = all_to_all(4, lambda s: f"m{s}")
        outbound[3] = {d: f"lie{d}" for d in range(4)}
        delivery = LockstepScheduler().deliver_round(DEC, outbound, ctx)
        assert check_pgood(outbound, delivery.matrix, ctx.correct)
        assert delivery.dropped == 0
        # Equivocation survives outside selection rounds.
        assert delivery.matrix[0][3] != delivery.matrix[1][3]


class TestLockstepBadRounds:
    def test_good_round_enforces(self):
        ctx = ctx_for()
        scheduler = LockstepScheduler(
            (GoodBadSchedule.good_after(2), silent_behavior())
        )
        outbound = all_to_all(4, lambda s: f"m{s}")
        delivery = scheduler.deliver_round(
            RoundInfo(2, 1, RoundKind.DECISION), outbound, ctx
        )
        assert check_pgood(outbound, delivery.matrix, ctx.correct)

    def test_bad_round_may_drop(self):
        ctx = ctx_for()
        scheduler = never_good(random_drop_behavior(random.Random(1), 1.0))
        outbound = all_to_all(4, lambda s: f"m{s}")
        delivery = scheduler.deliver_round(DEC, outbound, ctx)
        assert all(not inbox for inbox in delivery.matrix.values())
        assert delivery.dropped == 16

    def test_partition_behavior(self):
        ctx = ctx_for()
        scheduler = never_good(partition_behavior([[0, 1], [2, 3]]))
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = scheduler.deliver_round(DEC, outbound, ctx).matrix
        assert 0 in matrix[1] and 1 in matrix[0]
        assert 2 not in matrix[0] and 0 not in matrix[2]

    def test_bad_selection_round_is_not_canonicalized(self):
        """A bad round grants no predicate: Pcons is a good-round oracle."""
        ctx = ctx_for(n=4, b=1, byz=[3])
        outbound = all_to_all(4, lambda s: f"m{s}")
        outbound[3] = {d: f"lie{d}" for d in range(4)}
        matrix = never_good(lambda s, d: True).deliver_round(
            SEL, outbound, ctx
        ).matrix
        assert matrix == faithful_delivery(outbound)


class TestPrelScheduler:
    def test_prel_holds(self):
        model = FaultModel(5, 1, 0)
        ctx = RunContext(model, byzantine=frozenset({4}))
        outbound = all_to_all(5, lambda s: f"m{s}")
        delivery = PrelScheduler(random.Random(2)).deliver_round(
            DEC, outbound, ctx
        )
        assert check_prel(delivery.matrix, ctx.correct, model.n - model.b - model.f)
        assert delivery.dropped == 25 - sum(map(len, delivery.matrix.values()))

    def test_byzantine_receiver_gets_everything(self):
        model = FaultModel(5, 1, 0)
        ctx = RunContext(model, byzantine=frozenset({4}))
        outbound = all_to_all(5, lambda s: f"m{s}")
        matrix = PrelScheduler(random.Random(2)).deliver_round(
            DEC, outbound, ctx
        ).matrix
        assert len(matrix[4]) == 5

    def test_subsets_can_differ_between_receivers(self):
        model = FaultModel(6, 1, 1)  # minimum 4 of 6
        ctx = RunContext(model)
        scheduler = PrelScheduler(random.Random(0))
        outbound = all_to_all(6, lambda s: f"m{s}")
        seen = set()
        for _ in range(20):
            matrix = scheduler.deliver_round(DEC, outbound, ctx).matrix
            seen.add(frozenset(matrix[0]))
        assert len(seen) > 1  # the adversary varies the chosen subsets


class TestDropAndSilence:
    def test_zero_drop_is_faithful(self):
        ctx = ctx_for()
        scheduler = never_good(random_drop_behavior(random.Random(0), 0.0))
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = scheduler.deliver_round(DEC, outbound, ctx).matrix
        assert check_pgood(outbound, matrix, ctx.correct)

    def test_silent_delivers_nothing_to_honest(self):
        ctx = ctx_for(n=4, b=1, byz=[3])
        outbound = all_to_all(4, lambda s: f"m{s}")
        matrix = never_good(silent_behavior()).deliver_round(
            DEC, outbound, ctx
        ).matrix
        assert all(pid == 3 for pid in matrix)


class TestDropProbabilityBounds:
    """A drop probability outside [0, 1] is refused where a drop rule is
    built — NaN included, which used to drop every message."""

    @pytest.mark.parametrize("drop_prob", [math.nan, 1.5, -0.2])
    def test_out_of_range_is_refused(self, drop_prob):
        with pytest.raises(ValueError, match=r"drop_prob must be in \[0, 1\]"):
            random_drop_behavior(random.Random(0), drop_prob)
