"""Scheduler-level guarantees: canonicalization order and drop accounting.

Two properties pinned at the :meth:`deliver_round` level:

* the payload an equivocator is canonicalized to in a selection round must
  not depend on the bad-round edge rule — which edge survives a partition
  must never change *what* the survivors receive (cross-branch parity with
  the filter-free fast path);
* ``sent == delivered + dropped`` holds on **both** scheduler branches: the
  lockstep scheduler reports messages its oracle withheld as dropped, the
  timed scheduler reports deadline misses and filtered edges.
"""

import pytest

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel, RoundInfo, RoundKind
from repro.engine import build_instance, run_instance
from repro.engine.scheduler import (
    LockstepScheduler,
    RoundDelivery,
    RoundScheduler,
    TimedScheduler,
)
from repro.eventsim.network import FixedLatency, PartialSynchronyNetwork
from repro.rounds.base import RunContext
from repro.rounds.schedule import GoodBadSchedule

SELECTION = RoundInfo(number=1, phase=1, kind=RoundKind.SELECTION)


def make_timed(bad_rule=None):
    """A timed scheduler; ``bad_rule`` makes every round a bad one under it."""
    network = PartialSynchronyNetwork(
        FixedLatency(1.0), gst=0.0, delta=2.0, seed=0
    )
    scheduler = TimedScheduler(
        network,
        round_duration=2.5,
        good_bad=bad_rule and (GoodBadSchedule.never_good(), bad_rule),
    )
    scheduler.reset()
    return scheduler


def equivocating_outbound():
    """Sender 3 equivocates: a different payload on every edge."""
    outbound = {
        pid: {dest: f"h{pid}" for dest in range(4)} for pid in range(3)
    }
    outbound[3] = {0: "alpha", 1: "beta", 2: "gamma"}
    return outbound


def byz_context():
    return RunContext(FaultModel(4, 1, 0), byzantine=frozenset({3}))


class TestCanonicalizationBeforeFilter:
    def test_filtered_branch_matches_filter_free_payloads(self):
        """Dropping the edge that carried the canonical payload must not
        change which payload the surviving receivers see."""
        reference = make_timed().deliver_round(
            SELECTION, equivocating_outbound(), byz_context()
        )
        # All receivers see the equivocator pinned to its first payload.
        expected = {
            dest: delivered[3]
            for dest, delivered in reference.matrix.items()
            if 3 in delivered
        }
        assert set(expected.values()) == {"alpha"}

        def drop_byz_to_0(sender, dest):
            return not (sender == 3 and dest == 0)

        filtered = make_timed(drop_byz_to_0).deliver_round(
            SELECTION, equivocating_outbound(), byz_context()
        )
        for dest, delivered in filtered.matrix.items():
            if 3 in delivered:
                assert delivered[3] == expected[dest]
        # The suppressed edge is really gone — and counted.
        assert 3 not in filtered.matrix.get(0, {})
        assert filtered.dropped == 1

    def test_pass_all_filter_is_identical_to_no_filter(self):
        reference = make_timed().deliver_round(
            SELECTION, equivocating_outbound(), byz_context()
        )
        filtered = make_timed(lambda *_: True).deliver_round(
            SELECTION, equivocating_outbound(), byz_context()
        )
        assert filtered.matrix == reference.matrix
        assert filtered.dropped == reference.dropped


class _DropReceiverZero(RoundScheduler):
    """Withholds every message addressed to process 0."""

    def deliver_round(self, info, outbound, ctx):
        matrix = {}
        dropped = 0
        for sender, messages in outbound.items():
            for dest, payload in messages.items():
                if dest == 0:
                    dropped += 1
                    continue
                matrix.setdefault(dest, {})[sender] = payload
        return RoundDelivery(matrix, dropped=dropped)


class TestDropAccounting:
    @staticmethod
    def _counts(delivery, outbound):
        sent = sum(len(messages) for messages in outbound.values())
        delivered = sum(len(received) for received in delivery.matrix.values())
        return sent, delivered

    def test_lockstep_reports_withheld_messages_as_dropped(self):
        outbound = equivocating_outbound()
        scheduler = LockstepScheduler(
            (GoodBadSchedule.never_good(), lambda sender, dest: dest != 0)
        )
        delivery = scheduler.deliver_round(SELECTION, outbound, byz_context())
        sent, delivered = self._counts(delivery, outbound)
        assert delivery.dropped == sent - delivered > 0

    def test_kernel_accounts_a_custom_schedulers_drops(self):
        """A test fake is a :class:`RoundScheduler`; the kernel folds its
        drop count into the outcome like any built-in scheduler's."""
        model = FaultModel(4, 1, 0)
        params = build_class_parameters(AlgorithmClass.CLASS_3, model)
        outcome = run_instance(
            build_instance(params, {pid: "v" for pid in range(4)}),
            _DropReceiverZero(),
            max_phases=2,
            observe="metrics",
        )
        assert outcome.messages_dropped > 0
        assert outcome.messages_sent == (
            outcome.messages_delivered + outcome.messages_dropped
        )

    def test_lockstep_injected_deliveries_never_go_negative(self):
        """A Pcons oracle fans a partial sender's canonical payload to
        audience members it never addressed (delivered > sent); dropped
        must count only sent-edge losses, never go negative."""
        outbound = {
            pid: {dest: f"h{pid}" for dest in range(4)} for pid in range(2)
        }
        outbound[2] = {0: "partial"}  # e.g. an unclean mid-round crash
        delivery = LockstepScheduler().deliver_round(
            SELECTION, outbound, byz_context()
        )
        assert delivery.dropped >= 0
        missing = sum(
            1
            for sender, messages in outbound.items()
            for dest in messages
            if sender not in delivery.matrix.get(dest, {})
        )
        assert delivery.dropped == missing

    def test_lockstep_reliable_drops_nothing(self):
        outbound = equivocating_outbound()
        delivery = LockstepScheduler().deliver_round(
            SELECTION, outbound, byz_context()
        )
        sent, delivered = self._counts(delivery, outbound)
        assert sent == delivered
        assert delivery.dropped == 0

    @pytest.mark.parametrize("use_filter", [False, True])
    def test_timed_accounting_closes(self, use_filter):
        flt = (lambda s, d: d != 0) if use_filter else None
        outbound = equivocating_outbound()
        delivery = make_timed(flt).deliver_round(
            SELECTION, outbound, byz_context()
        )
        sent, delivered = self._counts(delivery, outbound)
        assert sent == delivered + delivery.dropped
