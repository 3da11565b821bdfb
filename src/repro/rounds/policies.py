"""Delivery policies: who receives what in each round.

A :class:`DeliveryPolicy` turns the outbound matrix of a round (what every
process put on the wire) into a delivery matrix (what every process
receives), subject to the communication predicate the policy realizes:

* :class:`ReliablePolicy` — permanently good periods: ``Pgood`` in every
  round and ``Pcons`` in the round kinds that need it (selection rounds);
* :class:`GoodBadPolicy` — a partially synchronous system driven by a
  :class:`~repro.rounds.schedule.GoodBadSchedule`; a bad round delivers
  the edges a pluggable :data:`BadBehavior` *edge rule* admits (random
  loss, partition, silence, …) through the one
  :func:`filtered_delivery` loop — the same ``(schedule, rule)`` pair the
  timed scheduler and the ``Pcons`` stack apply;
* :class:`AsyncPrelPolicy` — the randomized-algorithm adversary: fully
  asynchronous but every correct process receives at least ``n − b − f``
  messages per round (``Prel``), the adversary picking which;
* :class:`LossyPolicy` — i.i.d. message loss with no guarantee (for
  robustness tests: safety must still hold): never good + random loss;
* :class:`SilentPolicy` — delivers nothing: never good + silence.

Two invariants hold in *every* policy, reflecting Section 2.1:

1. No impersonation: a delivered payload is always one the recorded sender
   actually produced this round.
2. Byzantine receivers get everything addressed to them faithfully (the
   adversary has maximal information).

``Pcons`` enforcement collapses equivocation: for each sender a canonical
payload is chosen (the one addressed to the lowest-id correct receiver) and
delivered identically to every correct process addressed by correct senders
this round.  This models what the echo-based implementations of [17]/[2]
achieve; the implementations themselves live in ``repro.network.wic``.
"""

from __future__ import annotations

import abc
import random
from typing import AbstractSet, Callable, Iterable, Optional, Set, Tuple

from repro.core.types import ProcessId, RoundInfo, RoundKind
from repro.rounds.base import DeliveryMatrix, OutboundMatrix, RunContext
from repro.rounds.schedule import GoodBadSchedule

#: Default round kinds in which Pcons is enforced during good periods.
DEFAULT_PCONS_KINDS = frozenset({RoundKind.SELECTION})


def count_edges(matrix: DeliveryMatrix) -> int:
    """Total ``(sender → receiver)`` deliveries in ``matrix`` — O(n)."""
    return sum(map(len, matrix.values()))


def faithful_delivery(outbound: OutboundMatrix) -> DeliveryMatrix:
    """Deliver every message exactly as addressed."""
    matrix: DeliveryMatrix = {}
    for sender, messages in outbound.items():
        for dest, payload in messages.items():
            matrix.setdefault(dest, {})[sender] = payload
    return matrix


def deliver_to_byzantine(
    matrix: DeliveryMatrix, outbound: OutboundMatrix, ctx: RunContext
) -> None:
    """Ensure Byzantine receivers see everything addressed to them."""
    for sender, messages in outbound.items():
        for dest, payload in messages.items():
            if dest in ctx.byzantine:
                matrix.setdefault(dest, {})[sender] = payload


def enforce_pcons(outbound: OutboundMatrix, ctx: RunContext) -> DeliveryMatrix:
    """Build a delivery matrix in which ``Pcons`` holds.

    Correct receivers addressed by at least one correct sender all receive
    the same vector; each sender contributes a single canonical payload
    (equivocation by Byzantine senders is collapsed).  Byzantine receivers
    still see the raw traffic addressed to them.
    """
    correct = ctx.correct
    audience: Set[ProcessId] = set()
    for sender in correct:
        messages = outbound.get(sender)
        if not messages:
            continue
        if messages.keys() >= correct:
            # Broadcast fast path: one correct sender addressing every
            # correct process already makes the audience maximal.
            audience = set(correct)
            break
        audience.update(dest for dest in messages if dest in correct)

    matrix: DeliveryMatrix = {receiver: {} for receiver in audience}
    min_audience = min(audience) if audience else None
    for sender, messages in outbound.items():
        if not messages or not audience:
            continue
        if min_audience in messages:
            # Broadcasts always address the lowest-id audience member.
            canonical = messages[min_audience]
        else:
            canonical_dest = min(
                (dest for dest in messages if dest in audience), default=None
            )
            if canonical_dest is None:
                continue
            canonical = messages[canonical_dest]
        for inbox in matrix.values():
            inbox[sender] = canonical
    deliver_to_byzantine(matrix, outbound, ctx)
    return matrix


def enforce_pgood(outbound: OutboundMatrix, ctx: RunContext) -> DeliveryMatrix:
    """Faithful delivery — trivially satisfies ``Pgood``.

    Faithful delivery already hands Byzantine receivers everything
    addressed to them, so no extra ``deliver_to_byzantine`` pass is needed.
    """
    return faithful_delivery(outbound)


class DeliveryPolicy(abc.ABC):
    """Strategy deciding the delivery matrix of each round.

    ``deliver`` is the single source of delivery logic; subclasses override
    it freely (including via ``super().deliver()``).  Counting is a
    separate, optional contract: a policy whose delivery is fully described
    by its own ``deliver`` declares so by pointing ``_counted_deliver`` at
    that function and implementing :meth:`_count_dropped`; the moment a
    subclass replaces ``deliver``, the identity check in
    :meth:`deliver_counted` fails closed and the scheduler rescans.
    """

    #: The ``deliver`` implementation :meth:`_count_dropped`'s contract
    #: describes.  Counting policies set this right after their class body
    #: (``MyPolicy._counted_deliver = MyPolicy.deliver``); it is compared
    #: by identity against ``type(self).deliver`` so an override anywhere
    #: in the MRO silently falls back to the scheduler's edge-exact rescan
    #: instead of miscounting.
    _counted_deliver: Optional[Callable] = None

    @abc.abstractmethod
    def deliver(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> DeliveryMatrix:
        """Compute what every process receives in round ``info``."""

    def deliver_counted(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> Tuple[DeliveryMatrix, Optional[int]]:
        """``(matrix, dropped)``: the delivery plus a withheld-edge count.

        ``dropped`` is the number of sent edges absent from the matrix, or
        ``None`` when it cannot be counted here — the lockstep scheduler
        then falls back to an edge-exact O(edges) rescan of the outbound
        matrix.  Policies whose matrix is an exact subset of the sent
        edges (no injection — only an oracle enforcing ``Pcons`` ever
        injects deliveries) count ``sent − delivered`` in O(n) instead,
        via :meth:`_count_dropped`.
        """
        matrix = self.deliver(info, outbound, ctx)
        # Class-level access on both sides: instance access would bind the
        # stored function into a method object and never compare equal.
        if type(self).deliver is not type(self)._counted_deliver:
            return matrix, None
        return matrix, self._count_dropped(info, outbound, matrix, ctx)

    def _count_dropped(
        self,
        info: RoundInfo,
        outbound: OutboundMatrix,
        matrix: DeliveryMatrix,
        ctx: RunContext,
    ) -> Optional[int]:
        """Withheld-edge count for this class's own ``deliver`` output."""
        return None


class ReliablePolicy(DeliveryPolicy):
    """Permanently synchronous: ``Pgood`` always, ``Pcons`` where needed."""

    def __init__(
        self, pcons_kinds: AbstractSet[RoundKind] = DEFAULT_PCONS_KINDS
    ) -> None:
        self._pcons_kinds = frozenset(pcons_kinds)

    def deliver(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> DeliveryMatrix:
        if info.kind in self._pcons_kinds:
            return enforce_pcons(outbound, ctx)
        return enforce_pgood(outbound, ctx)

    def _count_dropped(self, info, outbound, matrix, ctx) -> Optional[int]:
        if info.kind in self._pcons_kinds:
            # The Pcons oracle may withhold *and* inject; edge-exact
            # accounting needs the scheduler's rescan.
            return None
        # Pgood rounds deliver faithfully: every sent edge arrives.
        return 0


ReliablePolicy._counted_deliver = ReliablePolicy.deliver


#: Bad-period behaviour as an edge rule: ``(sender, dest)`` → deliver?  It is
#: asked only about honest-bound edges (Byzantine receivers get everything),
#: sender-major and dest-minor, so a rule drawing from an rng consumes one
#: draw per such edge in that order.  A rule can only withhold.
BadBehavior = Callable[[ProcessId, ProcessId], bool]


def filtered_delivery(
    outbound: OutboundMatrix, byzantine: AbstractSet[ProcessId], rule: BadBehavior
) -> Tuple[DeliveryMatrix, int]:
    """``(matrix, dropped)``: every edge bound for a Byzantine receiver plus
    the honest-bound edges ``rule`` admits; ``dropped`` counts the rest."""
    matrix: DeliveryMatrix = {}
    dropped = 0
    for sender, messages in outbound.items():
        for dest, payload in messages.items():
            if dest in byzantine or rule(sender, dest):
                matrix.setdefault(dest, {})[sender] = payload
            else:
                dropped += 1
    return matrix, dropped


def random_drop_behavior(rng: random.Random, drop_prob: float = 0.5) -> BadBehavior:
    """Each message is independently dropped with probability ``drop_prob``."""
    return lambda sender, dest: rng.random() >= drop_prob


def partition_behavior(groups: Iterable[Iterable[ProcessId]]) -> BadBehavior:
    """Messages only cross within the given groups (a network partition)."""
    edges = frozenset(
        (sender, dest)
        for group in map(tuple, groups)
        for sender in group
        for dest in group
    )
    return lambda sender, dest: (sender, dest) in edges


def silent_behavior() -> BadBehavior:
    """Nothing is delivered to honest processes during the bad period."""
    return lambda sender, dest: False


class GoodBadPolicy(DeliveryPolicy):
    """Partial synchrony: a schedule chooses good rounds, a behaviour bad ones.

    The random-loss default behaviour draws from a policy-owned ``rng``
    (never the module-level :mod:`random`), so runs are a pure function of
    the rng threaded in, and callers reusing one policy object across runs
    can :meth:`reseed` it.  A custom ``bad_behavior`` owns its randomness
    (scenario compilation builds the rule over a fresh
    ``random.Random(per_run_seed)`` per run); :meth:`reseed` cannot reach
    inside it.
    """

    def __init__(
        self,
        schedule: GoodBadSchedule,
        bad_behavior: Optional[BadBehavior] = None,
        pcons_kinds: AbstractSet[RoundKind] = DEFAULT_PCONS_KINDS,
        rng: Optional[random.Random] = None,
        drop_prob: float = 0.5,
    ) -> None:
        self._schedule = schedule
        self._rng = rng if rng is not None else random.Random(0)
        self._bad = bad_behavior or random_drop_behavior(self._rng, drop_prob)
        self._pcons_kinds = frozenset(pcons_kinds)

    def reseed(self, seed: int) -> None:
        """Reset the random-loss stream to a fresh per-run derivation."""
        self._rng.seed(seed)

    @property
    def schedule(self) -> GoodBadSchedule:
        return self._schedule

    def deliver(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> DeliveryMatrix:
        if self._schedule.is_good(info.number):
            if info.kind in self._pcons_kinds:
                return enforce_pcons(outbound, ctx)
            return enforce_pgood(outbound, ctx)
        return filtered_delivery(outbound, ctx.byzantine, self._bad)[0]

    def _count_dropped(self, info, outbound, matrix, ctx) -> Optional[int]:
        if self._schedule.is_good(info.number):
            # Pcons may inject (rescan); Pgood delivers faithfully.
            return None if info.kind in self._pcons_kinds else 0
        # A rule can only withhold: the matrix is a subset of the sent edges.
        return count_edges(outbound) - count_edges(matrix)


GoodBadPolicy._counted_deliver = GoodBadPolicy.deliver


class AsyncPrelPolicy(DeliveryPolicy):
    """Fully asynchronous delivery guaranteeing only ``Prel`` (Section 6).

    Every correct process receives at least ``n − b − f`` of the messages
    addressed to it each round; the adversary (here: a seeded RNG) chooses
    which subset, independently per receiver — so different correct processes
    may see disjoint subsets, the scenario randomized algorithms must beat.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng if rng is not None else random.Random(0)

    def reseed(self, seed: int) -> None:
        """Reset the adversary's choice stream to a per-run derivation."""
        self._rng.seed(seed)

    def deliver(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> DeliveryMatrix:
        model = ctx.model
        minimum = model.n - model.b - model.f
        inboxes = faithful_delivery(outbound)
        matrix: DeliveryMatrix = {}
        for receiver, inbox in inboxes.items():
            if receiver in ctx.byzantine:
                matrix[receiver] = dict(inbox)
                continue
            senders = sorted(inbox)
            keep = max(minimum, 0)
            if len(senders) <= keep:
                matrix[receiver] = dict(inbox)
            else:
                chosen = self._rng.sample(senders, keep)
                matrix[receiver] = {s: inbox[s] for s in chosen}
        return matrix

    def _count_dropped(self, info, outbound, matrix, ctx) -> Optional[int]:
        # Each inbox is a subset of the faithful one: exact-subset delivery.
        return count_edges(outbound) - count_edges(matrix)


AsyncPrelPolicy._counted_deliver = AsyncPrelPolicy.deliver


class LossyPolicy(GoodBadPolicy):
    """Unconstrained i.i.d. loss — no predicate holds; safety must survive."""

    def __init__(
        self, rng: Optional[random.Random] = None, drop_prob: float = 0.3
    ) -> None:
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {drop_prob}")
        super().__init__(
            GoodBadSchedule.never_good(), rng=rng, drop_prob=drop_prob
        )


class SilentPolicy(GoodBadPolicy):
    """Delivers nothing to honest processes (degenerate bad period)."""

    def __init__(self) -> None:
        super().__init__(GoodBadSchedule.never_good(), silent_behavior())
