"""Shared types for the generic consensus algorithm.

The paper expresses algorithms in a *communication-closed round model*
(Section 2.1): in round ``r`` each process sends messages according to a
sending function and, at the end of the round, applies a transition function
to the vector of messages received *in that round*.  Phases group rounds: a
phase ``φ`` contains a selection round (``3φ−2``), a validation round
(``3φ−1``, skipped when ``FLAG = *``) and a decision round (``3φ``).

Messages are immutable dataclasses.  Byzantine processes may send arbitrary
payloads, so every transition function parses messages defensively via the
``coerce_*`` helpers below, dropping anything malformed — this mirrors the
fact that a real implementation ignores unparseable bytes.  A parse lives
as long as its round (:func:`clear_payload_caches`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Hashable, Mapping, Optional, Tuple

#: Processes are identified by small integers ``0..n-1`` (the set Π).
ProcessId = int

#: Consensus proposals can be any hashable value.
Value = Hashable

#: Phases are numbered from 1 (phase ``φ`` in the paper).
Phase = int

#: Global round numbers are numbered from 1.
Round = int

#: A history is the set of ``(value, phase)`` pairs recorded at selection.
HistoryEntry = Tuple[Value, Phase]
History = FrozenSet[HistoryEntry]


class RoundKind(enum.Enum):
    """The role a round plays inside a phase."""

    SELECTION = "selection"
    VALIDATION = "validation"
    DECISION = "decision"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Flag(enum.Enum):
    """The paper's ``FLAG`` parameter.

    ``ANY`` corresponds to ``FLAG = *`` (all votes count in the decision
    round; the validation round is suppressed).  ``CURRENT_PHASE`` corresponds
    to ``FLAG = φ`` (only votes validated in the current phase count).
    """

    ANY = "*"
    CURRENT_PHASE = "phi"

    @property
    def needs_validation_round(self) -> bool:
        """True iff instantiations with this flag run a validation round."""
        return self is Flag.CURRENT_PHASE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SelectionMessage:
    """Line 7 of Algorithm 1: ``⟨vote, ts, history, Selector(p, φ)⟩``."""

    vote: Value
    ts: Phase
    history: History
    selector: FrozenSet[ProcessId]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Sel(vote={self.vote!r}, ts={self.ts}, "
            f"|hist|={len(self.history)}, S={sorted(self.selector)})"
        )


@dataclass(frozen=True)
class ValidationMessage:
    """Line 19 of Algorithm 1: ``⟨select, validators⟩``."""

    select: Value
    validators: FrozenSet[ProcessId]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Val(select={self.select!r}, V={sorted(self.validators)})"


@dataclass(frozen=True)
class DecisionMessage:
    """Line 29 of Algorithm 1: ``⟨vote, ts⟩``."""

    vote: Value
    ts: Phase

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dec(vote={self.vote!r}, ts={self.ts})"


@dataclass(frozen=True)
class RoundInfo:
    """Static description of one round of the generic algorithm."""

    number: Round
    phase: Phase
    kind: RoundKind

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoundInfo(r={self.number}, phase={self.phase}, {self.kind})"


@dataclass(frozen=True)
class Decision:
    """A decision event: which process decided which value and when."""

    process: ProcessId
    value: Value
    round: Round
    phase: Phase


def coerce_history(raw: object) -> Optional[History]:
    """Parse an untrusted history field into a frozen set of (value, phase).

    Returns ``None`` if the field is structurally invalid.  Entries must be
    pairs whose second element is a non-negative integer; values must be
    hashable (guaranteed if they sit inside a set already).
    """
    if isinstance(raw, (set, frozenset)):
        for entry in raw:
            if not isinstance(entry, tuple) or len(entry) != 2:
                return None
            phase = entry[1]
            if not isinstance(phase, int) or isinstance(phase, bool) or phase < 0:
                return None
        return raw if isinstance(raw, frozenset) else frozenset(raw)
    return None


def _validate_selection_message(raw: object) -> Optional[SelectionMessage]:
    if not isinstance(raw, SelectionMessage):
        return None
    if not isinstance(raw.ts, int) or isinstance(raw.ts, bool) or raw.ts < 0:
        return None
    history = coerce_history(raw.history)
    if history is None:
        return None
    if not isinstance(raw.selector, frozenset):
        return None
    if not all(isinstance(pid, int) and not isinstance(pid, bool) for pid in raw.selector):
        return None
    if history is not raw.history:
        return SelectionMessage(raw.vote, raw.ts, history, raw.selector)
    return raw


def _validate_validation_message(raw: object) -> Optional[ValidationMessage]:
    if not isinstance(raw, ValidationMessage):
        return None
    if not isinstance(raw.validators, frozenset):
        return None
    if not all(
        isinstance(pid, int) and not isinstance(pid, bool) for pid in raw.validators
    ):
        return None
    return raw


def _validate_decision_message(raw: object) -> Optional[DecisionMessage]:
    if not isinstance(raw, DecisionMessage):
        return None
    if not isinstance(raw.ts, int) or isinstance(raw.ts, bool) or raw.ts < 0:
        return None
    return raw


#: The validators' identity caches, emptied by :func:`clear_payload_caches`.
_PAYLOAD_CACHES: Tuple[dict, ...] = ()


def _identity_cached(validate, exact_type: type, maxsize: int = 4096):
    """Memoize a payload validator by object identity, for one round.

    Rounds hand the same broadcast payload object to every receiver, so
    each of the n receivers would otherwise re-validate an identical
    message; this collapses that to one validation per payload object —
    one of the hot-path optimizations behind the kernel's metrics mode.

    A cached entry lives as long as the round that delivered its payload:
    the execution kernel calls :func:`clear_payload_caches` once the
    round's transitions have run, because a message of round ``r`` is
    never read again (communication-closed rounds).  ``maxsize`` is only a
    backstop for callers outside the kernel (the array tier's template
    compile, tests), which get a full flush when the cache fills.

    Identity keying (rather than value keying) keeps the validators exact:
    the cached result is precisely what ``validate`` returned for *this*
    object, payloads need not be hashable (Byzantine senders can put
    anything on the wire), and id-reuse after garbage collection cannot
    alias because each entry pins the keyed object and re-checks ``is`` on
    lookup.  Only instances of exactly ``exact_type`` — a frozen dataclass,
    so field rebinding is impossible — are ever cached; every other payload
    (arbitrary garbage, user-defined subclasses with who-knows-what
    mutability) is re-validated on every delivery, as before.
    """
    global _PAYLOAD_CACHES
    cache: dict = {}
    cache_get = cache.get
    _PAYLOAD_CACHES += (cache,)

    def wrapper(raw: object):
        hit = cache_get(id(raw))
        if hit is not None and hit[0] is raw:
            return hit[1]
        result = validate(raw)
        if type(raw) is exact_type:
            if len(cache) >= maxsize:
                cache.clear()
            cache[id(raw)] = (raw, result)
        return result

    return wrapper


def clear_payload_caches() -> None:
    """End a round: drop every cached validation, and the payloads it pins."""
    for cache in _PAYLOAD_CACHES:
        cache.clear()


coerce_selection_message = _identity_cached(
    _validate_selection_message, SelectionMessage
)
coerce_selection_message.__name__ = "coerce_selection_message"
coerce_selection_message.__doc__ = """Validate an untrusted selection-round payload.

    Byzantine senders can put anything on the wire; honest transition
    functions only act on well-formed ``SelectionMessage`` instances whose
    timestamp is a non-negative int and whose history/selector fields are
    frozen sets of the right shape.
    """

coerce_validation_message = _identity_cached(
    _validate_validation_message, ValidationMessage
)
coerce_validation_message.__name__ = "coerce_validation_message"
coerce_validation_message.__doc__ = "Validate an untrusted validation-round payload."

coerce_decision_message = _identity_cached(
    _validate_decision_message, DecisionMessage
)
coerce_decision_message.__name__ = "coerce_decision_message"
coerce_decision_message.__doc__ = "Validate an untrusted decision-round payload."


@dataclass(frozen=True)
class FaultModel:
    """The resilience envelope ``(n, b, f)`` of Section 2.1.

    ``n`` processes, at most ``b`` Byzantine, at most ``f`` faulty (crashing)
    honest processes.  All bound checks in the library go through this object
    so the arithmetic of Table 1 lives in exactly one place.
    """

    n: int
    b: int = 0
    f: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.b < 0 or self.f < 0:
            raise ValueError(f"b and f must be non-negative, got b={self.b} f={self.f}")
        if self.b + self.f >= self.n:
            raise ValueError(
                f"need at least one correct process: n={self.n}, b={self.b}, f={self.f}"
            )

    @property
    def processes(self) -> range:
        """The set Π as a range ``0..n-1``."""
        return range(self.n)

    @property
    def max_decision_threshold(self) -> int:
        """Upper bound ``TD ≤ n − b − f`` required for termination."""
        return self.n - self.b - self.f

    def quorum_exceeds_half_plus_b(self, count: int) -> bool:
        """True iff ``count > (n + b) / 2`` (line 15 of Algorithm 1)."""
        return 2 * count > self.n + self.b

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        return f"n={self.n}, b={self.b}, f={self.f}"


@dataclass(frozen=True)
class MessageRecord:
    """One delivered message, as recorded in execution traces."""

    round: Round
    sender: ProcessId
    receiver: ProcessId
    payload: object


ReceivedVector = Mapping[ProcessId, object]
"""The vector ``μ_p^r`` of messages received by one process in one round.

Keys are sender ids; a sender absent from the mapping corresponds to ``⊥``
(no message received from that sender this round).
"""
