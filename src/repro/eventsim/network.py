"""The partially synchronous timed network and its declarative spec.

Before GST, each message independently suffers either an unbounded extra
delay (with probability ``pre_gst_delay_prob``) or the normal sampled
latency; after GST every latency sample is clamped to the synchronous bound
δ.  This is the classic Dwork-Lynch-Stockmeyer partial synchrony shape the
paper's model (good/bad periods) abstracts.  :class:`NetworkSpec` is the one
description of such a network; :meth:`NetworkSpec.build` gives a run its
:class:`PartialSynchronyNetwork` over a per-run RNG stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

from repro.core.types import ProcessId

__all__ = ["NetworkSpec", "PartialSynchronyNetwork"]


#: A message edge for batched sampling: tuples whose first two items are
#: ``(sender, dest)`` — longer tuples are allowed and the extra items ignored,
#: so callers can pass their own ``(sender, dest, payload)`` records directly.
Edge = Tuple[ProcessId, ProcessId]


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative timed-network conditions (ignored by the lockstep engine).

    ``kind`` selects the latency model: ``"uniform"`` samples in
    ``[low, high]``; ``"fixed"`` always takes ``low``.  Before ``gst`` a
    message is delayed ``chaos_factor ×`` its latency with probability
    ``pre_gst_delay_prob``; from ``gst`` on its latency is clamped to
    ``delta``.  Rounds last ``round_duration`` (Δ).  Scenario and campaign
    specs embed this object; :meth:`build` instantiates the network with a
    per-run RNG stream.
    """

    kind: str = "uniform"
    low: float = 0.5
    high: float = 2.0
    gst: float = 0.0
    delta: float = 2.0
    pre_gst_delay_prob: float = 0.5
    chaos_factor: float = 50.0
    round_duration: float = 2.5

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "fixed"):
            raise ValueError(f"unknown latency kind {self.kind!r}")
        # Reject at load what would otherwise run silently (a nan Δ drops
        # every message, an infinite bound every pre-GST one) or fail once
        # per run at build().
        for field in fields(self):
            value = getattr(self, field.name)
            if value != value:
                raise ValueError(f"{field.name} must be a number, got nan")
        for name in ("round_duration", "delta", "chaos_factor", "low", "high"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 <= self.pre_gst_delay_prob <= 1.0:
            raise ValueError(
                f"pre_gst_delay_prob must be in [0, 1], got {self.pre_gst_delay_prob}"
            )
        if self.kind == "uniform" and self.low > self.high:
            raise ValueError(
                f"need 0 < low ≤ high, got [{self.low}, {self.high}]"
            )

    @property
    def clamps(self) -> bool:
        """Can a latency drawn from GST on exceed δ?  Every tier clamps it then."""
        return (self.low if self.kind == "fixed" else self.high) > self.delta

    def arrives(self, now: float) -> Optional[bool]:
        """Does every message sent at ``now`` meet the deadline ``now + Δ``?

        ``True`` when every one does, ``False`` when none does, whatever the
        stream draws; ``None`` when only the draws can tell — every pre-GST
        round.  From GST on a fixed latency is one compare in the round's
        own floats.  A uniform one is settled by ``top``, the draw at u → 1
        clamped as the draws are: rounding is monotone, so no draw exceeds
        it, and ``top ≤ Δ`` meets every round's deadline.  That answer must
        not depend on the round: a scheduler that stops drawing where the
        rule settles must never meet a later round that draws, or its
        stream would fall out of step with the per-message draws.
        """
        if now < self.gst:
            return None
        if self.kind == "fixed":
            return now + min(self.low, self.delta) <= now + self.round_duration
        top = self.low + (self.high - self.low)
        if self.clamps:
            top = min(top, self.delta)
        return True if top <= self.round_duration else None

    def build(self, seed: int) -> PartialSynchronyNetwork:
        """Instantiate the timed network with a per-run RNG stream."""
        return PartialSynchronyNetwork(self, seed)

    def describe(self) -> str:
        # Every field appears: two distinct specs must never alias, or they
        # would share derived seeds and merge into one aggregation cell.
        if self.kind == "fixed":
            base = f"fixed[{self.low:g}]"
        else:
            base = f"uniform[{self.low:g},{self.high:g}]"
        return (
            f"{base} gst={self.gst:g} δ={self.delta:g} "
            f"Δ={self.round_duration:g} p={self.pre_gst_delay_prob:g} "
            f"chaos={self.chaos_factor:g}"
        )


class PartialSynchronyNetwork:
    """Latency assignment under partial synchrony with a GST.

    * ``t < gst``: with probability ``pre_gst_delay_prob`` the message is
      delayed by ``chaos_factor ×`` the sampled latency (typically pushing it
      past its round deadline — the round-model equivalent of a loss);
    * ``t ≥ gst``: the sampled latency is clamped to ``delta`` (the
      synchronous bound).

    A uniform latency is drawn as ``low + (high − low) * random()``, which
    is ``Random.uniform``'s exact expression; a fixed one draws nothing.
    """

    def __init__(self, spec: NetworkSpec, seed: int) -> None:
        self.spec = spec
        self._rng = random.Random(seed)
        # The spec is frozen: its fields are read once per run, not per
        # message.
        self._fixed = spec.kind == "fixed"
        self._low = spec.low
        self._span = spec.high - spec.low
        self._gst = spec.gst
        self._delta = spec.delta
        self._delay_prob = spec.pre_gst_delay_prob
        self._chaos = spec.chaos_factor
        self._clamps = spec.clamps

    def transit_time(
        self, send_time: float, sender: ProcessId, dest: ProcessId
    ) -> float:
        """The latency this particular message experiences."""
        rand = self._rng.random
        base = self._low if self._fixed else self._low + self._span * rand()
        if send_time >= self._gst:
            return min(base, self._delta)
        if rand() < self._delay_prob:
            return base * self._chaos
        return base

    def sample_round(
        self, send_time: float, edges: Sequence[Edge]
    ) -> List[float]:
        """Transit times for one round's send step, batched over ``edges``.

        Same distribution and same RNG stream as calling
        :meth:`transit_time` once per edge in sequence order — the GST and
        latency-kind branches are hoisted out of the per-message loop
        instead.  ``edges`` holds tuples whose first two items are
        ``(sender, dest)``; extra items are ignored, so the timed scheduler
        passes its ``(sender, dest, payload)`` records directly.
        """
        rand = self._rng.random
        low = self._low
        if send_time >= self._gst:
            if self._fixed:
                samples = [low] * len(edges)
            else:
                span = self._span
                samples = [low + span * rand() for _ in edges]
            if not self._clamps:
                return samples
            delta = self._delta
            return [base if base <= delta else delta for base in samples]
        # Pre-GST the chaos coin interleaves with the latency draw message
        # by message; batching the bases first would reorder the stream.
        prob = self._delay_prob
        chaos = self._chaos
        if self._fixed:
            return [low * chaos if rand() < prob else low for _ in edges]
        span = self._span
        transits = []
        append = transits.append
        for _ in edges:
            base = low + span * rand()
            append(base * chaos if rand() < prob else base)
        return transits
