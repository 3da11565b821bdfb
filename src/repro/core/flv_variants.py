"""Specialized FLV instantiations used by the named algorithms (Section 5-6).

These are the paper's Algorithms 6 (FaB Paxos), 7 (Paxos) and 9 (Ben-Or),
implemented *literally* as printed.  Algorithm 8 (PBFT) is not here: it is
Algorithm 4 without the unanimity branch, line for line, so ``build_pbft``
instantiates ``FLVClass3(ensure_unanimity=False)`` itself.  Algorithms 6
and 7 stay literal because they are *not* quite their class functions — a
small-scope census (``tests/core/test_flv_variants.py::TestCensus``) pins
where:

* ``FaBPaxosFLV`` ≡ ``FLVClass1`` at ``TD = ⌈(n + 3b + 1)/2⌉`` on every
  vote multiset **except** ``|μ| = n − b − 1`` when ``n − b`` is even,
  where the printing's ``|μ| > n − b − 1`` answers ``null`` and Algorithm
  2's ``|μ| > 2(n − TD + b)`` answers ``?``;
* ``PaxosFLV`` ≡ ``FLVClass2`` at ``TD = ⌈(n + 1)/2⌉`` for odd ``n`` and
  differs for even ``n``: the printing's ``> n/2`` is one stricter than
  Algorithm 3's ``> n − TD``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.flv import FLVFunction, FLVRequirements, FLVResult
from repro.core.types import FaultModel, SelectionMessage, Value
from repro.utils.det import value_counts
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE


def fab_paxos_threshold(model: FaultModel) -> int:
    """FaB Paxos decision threshold ``TD = ⌈(n + 3b + 1)/2⌉`` (Section 5.1)."""
    return -((model.n + 3 * model.b + 1) // -2)


def paxos_threshold(model: FaultModel) -> int:
    """Paxos decision threshold ``TD = ⌈(n + 1)/2⌉`` (Section 5.3)."""
    return -((model.n + 1) // -2)


def pbft_threshold(model: FaultModel) -> int:
    """PBFT decision threshold ``TD = 2b + 1`` (Section 5.3)."""
    return 2 * model.b + 1


class FaBPaxosFLV(FLVFunction):
    """Algorithm 6: FLV for class 1 with ``TD = ⌈(n + 3b + 1)/2⌉``.

    Literal transcription::

        1: correctVotes ← { v : |{(v,−,−) ∈ μ}| > (n − b − 1)/2 }
        2: if |correctVotes| = 1 then return v
        4: else if |μ| > n − b − 1 then return ?
        6: else return null
    """

    name = "flv-fab-paxos"

    def __init__(self, model: FaultModel, threshold: int | None = None) -> None:
        super().__init__(model, threshold or fab_paxos_threshold(model))

    @property
    def requirements(self) -> FLVRequirements:
        return FLVRequirements(
            uses_ts=False, uses_history=False, supports_prel_liveness=True
        )

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        counts = value_counts(self._votes(messages))
        correct_votes = [
            value
            for value, count in counts.items()
            if 2 * count > self._n - self._b - 1
        ]
        if len(correct_votes) == 1:
            return correct_votes[0]
        if len(messages) > self._n - self._b - 1:
            return ANY_VALUE
        return NULL_VALUE


class PaxosFLV(FLVFunction):
    """Algorithm 7: FLV for class 3 simplified to benign faults.

    With ``b = 0`` every honest message satisfies ``(vote, ts) ∈ history``,
    so ``correctVotes = possibleVotes`` and the history (and unanimity
    branch) disappear.  Literal transcription::

        1: possibleVotes ← {(vote, ts, −) ∈ μ :
               |{(vote′, ts′, −) ∈ μ : vote = vote′ ∨ ts > ts′}| > n/2}
        2: if |possibleVotes| = 1 then return its vote
        4: else if |μ| > n/2 then return ?
        6: else return ⊥
    """

    name = "flv-paxos"

    def __init__(self, model: FaultModel, threshold: int | None = None) -> None:
        if model.b != 0:
            raise ValueError("PaxosFLV assumes the benign model (b = 0)")
        super().__init__(model, threshold or paxos_threshold(model))

    @property
    def requirements(self) -> FLVRequirements:
        return FLVRequirements(
            uses_ts=True, uses_history=False, supports_prel_liveness=True
        )

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        possible = []
        for message in messages:
            support = sum(
                1
                for other in messages
                if other.vote == message.vote or message.ts > other.ts
            )
            if 2 * support > self._n:
                possible.append(message)
        distinct_votes = {message.vote for message in possible}
        if len(distinct_votes) == 1:
            return next(iter(distinct_votes))
        if 2 * len(messages) > self._n:
            return ANY_VALUE
        return NULL_VALUE


class BenOrFLV(FLVFunction):
    """Algorithm 9: the Ben-Or selection rule.

    ``if received b + 1 messages ⟨v, φ − 1, −⟩ then return v else return ?``

    The function never returns ``null`` (it satisfies the strengthened
    FLV-liveness needed under ``Prel``), which is what makes the randomized
    adaptation of Section 6 possible for class-2 algorithms.
    """

    name = "flv-ben-or"

    @property
    def requirements(self) -> FLVRequirements:
        return FLVRequirements(
            uses_ts=True, uses_history=False, supports_prel_liveness=True
        )

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        counts: dict[Value, int] = {}
        for message in messages:
            if message.ts == phase - 1:
                counts[message.vote] = counts.get(message.vote, 0) + 1
        for vote, count in sorted(
            counts.items(), key=lambda item: (type(item[0]).__name__, repr(item[0]))
        ):
            if count >= self._b + 1:
                return vote
        return ANY_VALUE
