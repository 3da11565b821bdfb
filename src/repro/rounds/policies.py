"""Delivery oracles: who receives what in each round.

A round turns the outbound matrix (what every process put on the wire)
into a delivery matrix (what every process receives).  This module holds
the delivery functions the schedulers of :mod:`repro.engine.scheduler`
compose, one per communication predicate of Section 2.1:

* :func:`faithful_delivery` — ``Pgood``: every message as addressed;
* :func:`enforce_pcons` — ``Pcons`` for the good selection rounds;
* :func:`filtered_delivery` — a bad round: a :data:`BadBehavior` *edge
  rule* (random loss, partition, silence, …) withholds honest-bound
  edges — the rule of the same ``(schedule, rule)`` pair the lockstep
  scheduler, the timed scheduler and the ``Pcons`` stack apply;
* :func:`prel_delivery` — the randomized-algorithm adversary: fully
  asynchronous but every correct process receives at least ``n − b − f``
  messages per round (``Prel``), the adversary picking which.

Two invariants hold in *every* oracle, reflecting Section 2.1:

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

import random
from typing import AbstractSet, Callable, Iterable, Set, Tuple

from repro.core.types import ProcessId
from repro.rounds.base import DeliveryMatrix, OutboundMatrix, RunContext


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
    if not 0.0 <= drop_prob <= 1.0:  # nan fails the comparison too
        raise ValueError(f"drop_prob must be in [0, 1], got {drop_prob}")
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


def prel_delivery(
    outbound: OutboundMatrix, ctx: RunContext, rng: random.Random
) -> DeliveryMatrix:
    """Fully asynchronous delivery guaranteeing only ``Prel`` (Section 6).

    Every correct process receives ``n − b − f`` of the messages addressed
    to it (all of them if fewer were sent); the adversary — ``rng`` —
    chooses which, independently per receiver, so different correct
    processes may see disjoint subsets, the scenario randomized algorithms
    must beat.  Each inbox is a subset of the faithful one.
    """
    model = ctx.model
    keep = max(model.n - model.b - model.f, 0)
    matrix: DeliveryMatrix = {}
    for receiver, inbox in faithful_delivery(outbound).items():
        if receiver in ctx.byzantine or len(inbox) <= keep:
            matrix[receiver] = inbox
        else:
            chosen = rng.sample(sorted(inbox), keep)
            matrix[receiver] = {s: inbox[s] for s in chosen}
    return matrix
