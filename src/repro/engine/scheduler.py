"""Round schedulers: the timing discipline of an execution.

A :class:`RoundScheduler` answers one question per round: given what every
live process put on the wire, what does each receiver's inbox contain — and,
if rounds are timed, when does the round end?

Both per-edge schedulers take a scenario's communication schedule as one
optional ``good_bad`` pair — a
:class:`~repro.rounds.schedule.GoodBadSchedule` asked once per round and a
:data:`~repro.rounds.policies.BadBehavior` edge rule that, in a bad round,
withholds honest-bound edges.  A good round is a bad round whose rule
admits every edge.

* :class:`LockstepScheduler` — untimed rounds: an oracle realizes the
  predicate in force, ``Pcons`` in good selection rounds, ``Pgood`` in the
  other good rounds and the rule's
  :func:`~repro.rounds.policies.filtered_delivery` in bad ones.
* :class:`PrelScheduler` — untimed rounds under ``Prel`` only (Section 6),
  the one communication kind that is not per-edge.
* :class:`TimedScheduler` paces rounds with its network spec's duration Δ
  over a :class:`~repro.eventsim.network.PartialSynchronyNetwork`: messages
  sent at the round's start arrive after a sampled latency and are delivered
  only if they meet the round deadline (communication-closed rounds — late
  messages are discarded).  Byzantine equivocation in selection rounds is
  canonicalized to one payload per sender, as an implemented ``Pcons``
  would enforce (the micro-rounds such an implementation costs are
  :class:`~repro.network.stack.PconsStackScheduler`'s to measure).  In a
  bad round the rule withholds edges before any latency is sampled.

Within one round every ``(sender, dest)`` edge carries at most one message,
so the delivery matrix is independent of arrival order: the timed scheduler
therefore delivers a round in one sweep — collect the admitted edges, draw
their latencies in one batched call in exactly the sender-major, dest-minor
order the historical heap path used (so seeded runs are unchanged), compare
each against the deadline — O(m) per round, no event heap.  Set
``REPRO_SLOW_SCHEDULER=1`` to force the legacy
:class:`~repro.eventsim.events.EventQueue` push/pop path (the identity
suite diffs the two); ``eventsim`` users that genuinely need ordered
arrival keep using :class:`EventQueue` directly.

Every scheduler inherits the no-impersonation guarantee from the outbound
matrix it receives: a payload delivered as coming from ``q`` was produced
by ``q`` in this round.
"""

from __future__ import annotations

import abc
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.types import ProcessId, RoundInfo, RoundKind
from repro.rounds.base import DeliveryMatrix, OutboundMatrix, RunContext
from repro.rounds.policies import (
    BadBehavior,
    count_edges,
    enforce_pcons,
    faithful_delivery,
    filtered_delivery,
    prel_delivery,
)
from repro.rounds.schedule import GoodBadSchedule

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.eventsim.network import PartialSynchronyNetwork

#: The timing disciplines a scenario may compile onto.
ENGINES = ("lockstep", "timed")

#: Environment switch selecting the legacy heap-ordered timed delivery.
SLOW_SCHEDULER_ENV = "REPRO_SLOW_SCHEDULER"

#: Stands in for the ``network.sample`` span when no telemetry is bound.
_NO_SPAN = nullcontext()


@dataclass(frozen=True)
class RoundDelivery:
    """What a scheduler decided for one round."""

    #: receiver → (sender → payload).
    matrix: DeliveryMatrix
    #: Messages discarded (timed rounds: missed the deadline).
    dropped: int = 0
    #: Simulated end time of the round; ``None`` for untimed disciplines.
    end_time: Optional[float] = None


class RoundScheduler(abc.ABC):
    """Strategy deciding delivery (and pacing) of each round.

    A scheduler may carry per-run state (the timed scheduler tracks the
    simulated clock and in-flight messages); the kernel calls :meth:`reset`
    when it binds a scheduler, so one scheduler object can safely be reused
    across runs.
    """

    #: Bound instrumentation registry, or ``None`` (the un-instrumented hot
    #: path).  The kernel times each ``deliver_round`` call itself; a
    #: scheduler reads this only to open spans nested inside it.
    _telemetry = None

    def set_telemetry(self, telemetry) -> None:
        """Bind (or, with ``None``, clear) the per-run telemetry registry.

        The kernel calls this every time it binds a scheduler, so a
        scheduler reused across runs never reports into a stale registry.
        """
        self._telemetry = telemetry

    def reset(self) -> None:
        """Clear per-run state; called when a kernel binds this scheduler."""

    @abc.abstractmethod
    def deliver_round(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> RoundDelivery:
        """Turn the round's outbound matrix into its delivery outcome."""


#: A scenario's communication schedule: which rounds are good, and the edge
#: rule in force in the bad ones.
GoodBad = Tuple[GoodBadSchedule, BadBehavior]


class LockstepScheduler(RoundScheduler):
    """Untimed rounds delivered by the oracle of the predicate in force."""

    def __init__(self, good_bad: Optional[GoodBad] = None) -> None:
        self._good_bad = good_bad

    def deliver_round(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> RoundDelivery:
        if self._good_bad is not None:
            schedule, bad = self._good_bad
            if not schedule.is_good(info.number):
                matrix, dropped = filtered_delivery(outbound, ctx.byzantine, bad)
                return RoundDelivery(matrix, dropped=dropped)
        if info.kind is not RoundKind.SELECTION:
            return RoundDelivery(faithful_delivery(outbound))
        # The Pcons oracle may withhold *and* inject — fan a sender's
        # canonical payload to audience members it never addressed — so each
        # sent edge missing from the matrix is counted, edge-exactly, and an
        # injection never offsets a withheld edge.
        matrix = enforce_pcons(outbound, ctx)
        dropped = 0
        get = matrix.get
        empty: Dict[ProcessId, object] = {}
        for sender, messages in outbound.items():
            for dest in messages:
                if sender not in get(dest, empty):
                    dropped += 1
        return RoundDelivery(matrix, dropped=dropped)


class PrelScheduler(RoundScheduler):
    """Untimed rounds under ``Prel`` only: ``rng`` picks each inbox."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def deliver_round(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> RoundDelivery:
        matrix = prel_delivery(outbound, ctx, self._rng)
        # Each inbox is a subset of the faithful one.
        return RoundDelivery(
            matrix, dropped=count_edges(outbound) - count_edges(matrix)
        )


class TimedScheduler(RoundScheduler):
    """Δ-paced rounds with deadline delivery over a timed network; Δ is
    the network spec's ``round_duration``."""

    def __init__(
        self,
        network: "PartialSynchronyNetwork",
        *,
        good_bad: Optional[GoodBad] = None,
        use_heap: Optional[bool] = None,
    ) -> None:
        self._network = network
        self._round_duration = network.spec.round_duration
        self._good_bad = good_bad
        # ``use_heap`` selects the legacy EventQueue delivery; it defaults
        # to the REPRO_SLOW_SCHEDULER environment switch so the identity
        # suite (and worried users) can diff the two paths end to end.
        if use_heap is None:
            use_heap = os.environ.get(SLOW_SCHEDULER_ENV, "") not in ("", "0")
        self._queue = None
        if use_heap:
            # Imported here: only the reference path needs the event queue.
            from repro.eventsim.events import EventQueue

            self._queue = EventQueue()
        self._now = 0.0

    def reset(self) -> None:
        """Rewind the clock and drop in-flight messages (new run)."""
        if self._queue is not None:
            self._queue.clear()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time (the deadline of the last round)."""
        return self._now

    def deliver_round(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> RoundDelivery:
        deadline = self._now + self._round_duration
        # The bad-round edge rule in force, or ``None`` in a good round.
        rule = None
        if self._good_bad is not None:
            schedule, bad = self._good_bad
            if not schedule.is_good(info.number):
                rule = bad
        if self._queue is None:
            return self._deliver_fast(info, outbound, ctx, deadline, rule)
        return self._deliver_round_heap(info, outbound, ctx, deadline, rule)

    def _deliver_fast(
        self,
        info: RoundInfo,
        outbound: OutboundMatrix,
        ctx: RunContext,
        deadline: float,
        rule: Optional[BadBehavior],
    ) -> RoundDelivery:
        """Heap-free deadline delivery: one sweep over the round's edges.

        A good round is a bad round whose rule (``None``) admits every
        edge.  The rule admits edges *before* any latency is sampled (a
        suppressed edge draws nothing, as on the heap path); Byzantine
        receivers are always admitted, as under every lockstep behaviour.
        Within one round each edge carries at most one message, so the
        matrix does not depend on arrival order and the deadline test
        decides delivery directly — no heap.  The admitted ``(sender, dest,
        payload)`` records are collected in sender-major, dest-minor order
        and batched through one ``sample_round`` call: draw for draw the
        order of the heap path.  Communication closure applies to every
        receiver, Byzantine included: a message missing its deadline is
        dropped.
        """
        now = self._now
        dropped = 0
        byzantine = ctx.byzantine
        is_selection = info.kind is RoundKind.SELECTION
        pending: List[Tuple[ProcessId, ProcessId, object]] = []
        admit = pending.append
        for sender, messages in outbound.items():
            if is_selection and messages and sender in byzantine:
                # Pcons canonicalization, *before* the rule: the payload an
                # equivocator is pinned to must not depend on which edge
                # survives a partition, or the filtered round diverges from
                # the filter-free one.
                messages = dict.fromkeys(messages, next(iter(messages.values())))
            for dest, payload in messages.items():
                if rule is None or dest in byzantine or rule(sender, dest):
                    admit((sender, dest, payload))
                else:
                    # The scenario's communication schedule suppresses
                    # this edge (partition side, bad-period loss, …).
                    dropped += 1

        matrix: DeliveryMatrix = {}
        setdefault = matrix.setdefault
        constant = self._network.constant_transit(now)
        if constant is not None:
            # Post-GST fixed latency: zero RNG draws, one test.
            if now + constant <= deadline:
                for sender, dest, payload in pending:
                    setdefault(dest, {})[sender] = payload
            else:
                dropped += len(pending)
        elif pending:
            tel = self._telemetry
            with _NO_SPAN if tel is None else tel.span("network.sample"):
                transits = self._network.sample_round(now, pending)
            for (sender, dest, payload), transit in zip(pending, transits):
                if now + transit <= deadline:
                    setdefault(dest, {})[sender] = payload
                else:
                    dropped += 1

        self._now = deadline
        return RoundDelivery(matrix, dropped=dropped, end_time=deadline)

    def _deliver_round_heap(
        self,
        info: RoundInfo,
        outbound: OutboundMatrix,
        ctx: RunContext,
        deadline: float,
        rule: Optional[BadBehavior],
    ) -> RoundDelivery:
        """The legacy event-heap delivery (REPRO_SLOW_SCHEDULER=1).

        Samples one transit per message through
        :meth:`~repro.eventsim.network.PartialSynchronyNetwork.transit_time`
        and delivers through the :class:`~repro.eventsim.events.EventQueue`
        in arrival order — O(m log m).  Kept as the oracle the
        byte-identity suite diffs the fast path against.
        """
        canonical: Dict[ProcessId, object] = {}
        dropped = 0
        byzantine = ctx.byzantine
        for sender, messages in outbound.items():
            canonicalize = info.kind is RoundKind.SELECTION and sender in byzantine
            for dest, payload in messages.items():
                if canonicalize:
                    payload = canonical.setdefault(sender, payload)
                if rule is not None and dest not in byzantine and not rule(sender, dest):
                    dropped += 1
                    continue
                transit = self._network.transit_time(self._now, sender, dest)
                if self._now + transit <= deadline:
                    self._queue.push(self._now + transit, (dest, sender, payload))
                else:
                    dropped += 1

        matrix: DeliveryMatrix = {}
        while self._queue:
            arrival = self._queue.peek_time()
            if arrival is None or arrival > deadline:
                break
            dest, sender, payload = self._queue.pop().payload
            matrix.setdefault(dest, {})[sender] = payload
        dropped += self._queue.clear()

        self._now = deadline
        return RoundDelivery(matrix, dropped=dropped, end_time=deadline)
