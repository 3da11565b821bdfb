"""Latency models and the partially synchronous timed network.

Before GST, each message independently suffers either an unbounded extra
delay (with probability ``pre_gst_delay_prob``) or the normal sampled
latency; after GST every latency sample is clamped to the synchronous bound
δ.  This is the classic Dwork-Lynch-Stockmeyer partial synchrony shape the
paper's model (good/bad periods) abstracts.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

from repro.core.types import ProcessId

__all__ = [
    "FixedLatency",
    "LatencyModel",
    "NetworkSpec",
    "PartialSynchronyNetwork",
    "UniformLatency",
]


#: A message edge for batched sampling: tuples whose first two items are
#: ``(sender, dest)`` — longer tuples are allowed and the extra items ignored,
#: so callers can pass their own ``(sender, dest, payload)`` records directly.
Edge = Tuple[ProcessId, ProcessId]


class LatencyModel(abc.ABC):
    """Samples one-way message latencies."""

    @abc.abstractmethod
    def sample(self, rng: random.Random, sender: ProcessId, dest: ProcessId) -> float:
        """A latency in simulated time units (must be positive)."""

    def sample_many(
        self, rng: random.Random, edges: Sequence[Edge]
    ) -> List[float]:
        """One latency per edge, drawn in sequence order.

        Draw-for-draw identical to calling :meth:`sample` once per edge:
        overrides may hoist per-call overhead out of the loop but must
        consume the RNG stream in exactly the same order, or seeded runs
        diverge between the batched and per-message paths.
        """
        sample = self.sample
        return [sample(rng, edge[0], edge[1]) for edge in edges]

    def max_latency(self) -> Optional[float]:
        """An upper bound on every sample, or ``None`` if unbounded.

        Lets the network skip the post-GST δ-clamp entirely when the model
        cannot exceed δ anyway.
        """
        return None


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant latency."""

    latency: float = 1.0

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise ValueError(
                f"latency must be positive, got {self.latency}"
            )

    def sample(self, rng: random.Random, sender: ProcessId, dest: ProcessId) -> float:
        return self.latency

    def sample_many(
        self, rng: random.Random, edges: Sequence[Edge]
    ) -> List[float]:
        return [self.latency] * len(edges)

    def max_latency(self) -> float:
        return self.latency


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniform latency in ``[low, high]``."""

    low: float = 0.5
    high: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high:
            raise ValueError(f"need 0 < low ≤ high, got [{self.low}, {self.high}]")

    def sample(self, rng: random.Random, sender: ProcessId, dest: ProcessId) -> float:
        return rng.uniform(self.low, self.high)

    # The batched draw inlines ``Random.uniform``'s exact expression
    # ``a + (b - a) * random()`` — bit-identical results, one Python call
    # fewer per message (test_sample_round_matches_per_message_stream pins
    # the equivalence draw for draw).

    def sample_many(
        self, rng: random.Random, edges: Sequence[Edge]
    ) -> List[float]:
        low, span = self.low, self.high - self.low
        rand = rng.random
        return [low + span * rand() for _ in edges]

    def max_latency(self) -> float:
        return self.high


class PartialSynchronyNetwork:
    """Latency assignment under partial synchrony with a GST.

    * ``t < gst``: with probability ``pre_gst_delay_prob`` the message is
      delayed by ``chaos_factor ×`` the sampled latency (typically pushing it
      past its round deadline — the round-model equivalent of a loss);
    * ``t ≥ gst``: the sampled latency is clamped to ``delta`` (the
      synchronous bound).
    """

    def __init__(
        self,
        latency_model: LatencyModel,
        *,
        gst: float = 0.0,
        delta: float = 2.0,
        pre_gst_delay_prob: float = 0.5,
        chaos_factor: float = 50.0,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not delta > 0:  # nan fails the comparison too
            raise ValueError(f"delta must be positive, got {delta}")
        if gst != gst:
            raise ValueError("gst must be a number, got nan")
        if not 0.0 <= pre_gst_delay_prob <= 1.0:
            raise ValueError("pre_gst_delay_prob must be in [0, 1]")
        self._latency = latency_model
        self.gst = gst
        self.delta = delta
        self._delay_prob = pre_gst_delay_prob
        self._chaos = chaos_factor
        self._rng = rng if rng is not None else random.Random(seed)
        # The model's sample bound (None if unbounded); a frozen-dataclass
        # property, so cached once.  δ stays a per-call read: ``delta`` is
        # public and Δ-sensitivity sweeps may retune it between runs.
        self._max_latency = latency_model.max_latency()

    @property
    def _clamp_free(self) -> bool:
        """True when every sample is already ≤ δ, making the post-GST
        clamp a no-op the batched paths skip (min(x, δ) == x always)."""
        return self._max_latency is not None and self._max_latency <= self.delta

    def reseed(self, seed: int) -> None:
        """Reset the latency RNG to a fresh stream derived from ``seed``.

        Campaign workers call this with per-run derived seeds so that no two
        runs — and no two worker processes — ever share RNG state.
        """
        self._rng = random.Random(seed)

    def transit_time(
        self, send_time: float, sender: ProcessId, dest: ProcessId
    ) -> float:
        """The latency this particular message experiences."""
        base = self._latency.sample(self._rng, sender, dest)
        if send_time >= self.gst:
            return min(base, self.delta)
        if self._rng.random() < self._delay_prob:
            return base * self._chaos
        return base

    def constant_transit(self, send_time: float) -> Optional[float]:
        """The transit every message sent at ``send_time`` experiences, when
        that is one constant requiring zero RNG draws; ``None`` otherwise.

        Only a post-GST :class:`FixedLatency` (the exact class, not a
        subclass that might consume randomness) qualifies: its ``sample``
        never touches the stream, so short-circuiting it leaves the RNG
        state — and therefore every later draw of the run — untouched.
        """
        if send_time >= self.gst and type(self._latency) is FixedLatency:
            return min(self._latency.latency, self.delta)
        return None

    def sample_round(
        self, send_time: float, edges: Sequence[Edge]
    ) -> List[float]:
        """Transit times for one round's send step, batched over ``edges``.

        Same distribution and same RNG stream as calling
        :meth:`transit_time` once per edge in sequence order — the GST
        branch and the latency-model dispatch are hoisted out of the
        per-message loop instead.  ``edges`` holds tuples whose first two
        items are ``(sender, dest)``; extra items are ignored, so the timed
        scheduler passes its ``(sender, dest, payload)`` records directly.
        """
        if send_time >= self.gst:
            samples = self._latency.sample_many(self._rng, edges)
            if self._clamp_free:
                return samples
            delta = self.delta
            return [base if base <= delta else delta for base in samples]
        # Pre-GST the chaos coin interleaves with the latency draw message
        # by message; batching the bases first would reorder the stream.
        rng = self._rng
        sample = self._latency.sample
        rand = rng.random
        prob = self._delay_prob
        chaos = self._chaos
        transits = []
        append = transits.append
        for edge in edges:
            base = sample(rng, edge[0], edge[1])
            append(base * chaos if rand() < prob else base)
        return transits


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative timed-network conditions (ignored by the lockstep engine).

    ``kind`` selects the latency model: ``"uniform"`` samples in
    ``[low, high]``; ``"fixed"`` always takes ``low``.  The remaining fields
    mirror :class:`PartialSynchronyNetwork`.  Scenario and campaign specs
    embed this object; :meth:`build` instantiates the network with a per-run
    RNG stream.
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
        # every message) or fail once per run at build().
        for field in fields(self):
            value = getattr(self, field.name)
            if value != value:
                raise ValueError(f"{field.name} must be a number, got nan")
        for name in ("round_duration", "delta", "chaos_factor"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 <= self.pre_gst_delay_prob <= 1.0:
            raise ValueError(
                f"pre_gst_delay_prob must be in [0, 1], got {self.pre_gst_delay_prob}"
            )
        # Validate the latency parameters up front, exactly as building the
        # model would: LatencyModel.sample promises positive latencies.
        if self.kind == "fixed":
            if self.low <= 0:
                raise ValueError(
                    f"fixed latency must be positive, got {self.low}"
                )
        elif not 0 < self.low <= self.high:
            raise ValueError(
                f"need 0 < low ≤ high, got [{self.low}, {self.high}]"
            )

    def build(self, seed: int) -> PartialSynchronyNetwork:
        """Instantiate the timed network with a per-run RNG stream."""
        if self.kind == "fixed":
            latency = FixedLatency(self.low)
        else:
            latency = UniformLatency(self.low, self.high)
        return PartialSynchronyNetwork(
            latency,
            gst=self.gst,
            delta=self.delta,
            pre_gst_delay_prob=self.pre_gst_delay_prob,
            chaos_factor=self.chaos_factor,
            seed=seed,
        )

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
