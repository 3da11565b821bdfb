"""FLV for class 3 (Algorithm 4 of the paper).

Class 3 is characterized by ``FLAG = φ`` and ``TD > 2b + f``, which forces
``n > 3b + 2f`` — the optimal Byzantine resilience (PBFT's ``n > 3b``).  With
``TD`` possibly ``≤ 3b + f``, timestamps alone no longer suffice: the
``history`` log is used as a certificate that a (vote, ts) pair really was
selected by enough honest processes.

Pseudocode (Algorithm 4)::

     1: possibleVotes ← {(vote, ts, −, −) ∈ μ :
            |{(vote′, ts′, −, −) ∈ μ : vote = vote′ ∨ ts > ts′}| > n − TD + b}
     2: correctVotes ← {v : (v, ts) ∈ possibleVotes ∧
            |{(−, −, history′, −) ∈ μ : (v, ts) ∈ history′}| > b}
     3: if |correctVotes| = 1 then return v
     5: else if |correctVotes| > 1 then return ?
     7: else if |{(−, ts, −, −) ∈ μ : ts = 0}| > n − TD + b then
     8:     if some value v has a majority of messages in μ then return v
    10:     else return ?
    12: else return null

Lines 7-11 handle the initial situation (all timestamps still 0): line 9
ensures *unanimity* — if all honest processes proposed the same ``v``, a
majority of messages carry ``v`` and only ``v`` may be returned.

FLV-liveness for this class additionally requires *Selector-strongValidity*
(``|Selector(p, φ)| > 3b + 2f``): with smaller validator sets a validated
value might be certified by too few honest histories, and the function could
return ``null`` forever (Theorem 4).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.flv import FLVFunction, FLVRequirements, FLVResult
from repro.core.flv_class2 import survivors
from repro.core.types import FaultModel, SelectionMessage, Value
from repro.utils.det import majority_value
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE


def class3_min_threshold(model: FaultModel) -> int:
    """Smallest integer ``TD`` with ``TD > 2b + f``."""
    return 2 * model.b + model.f + 1


class FLVClass3(FLVFunction):
    """Algorithm 4: vote + timestamp + history locked-value detection."""

    name = "flv-class3"

    def __init__(
        self, model: FaultModel, threshold: int, *, ensure_unanimity: bool = True
    ) -> None:
        """``ensure_unanimity`` keeps lines 8-9; PBFT drops them (Section 5.3)."""
        super().__init__(model, threshold)
        self._ensure_unanimity = ensure_unanimity

    @property
    def ensure_unanimity(self) -> bool:
        """Whether the unanimity branch (lines 8-9) is active."""
        return self._ensure_unanimity

    @property
    def requirements(self) -> FLVRequirements:
        return FLVRequirements(
            uses_ts=True,
            uses_history=True,
            supports_prel_liveness=False,
            needs_strong_selector_validity=True,
        )

    def satisfies_liveness_bound(self) -> bool:
        """True iff ``TD > 2b + f`` (Theorem 4's liveness condition)."""
        return self.threshold > 2 * self._b + self.model.f

    def _history_support(
        self, messages: Sequence[SelectionMessage], vote: Value, ts: int
    ) -> int:
        """Number of received histories containing the pair ``(vote, ts)``."""
        return sum(1 for message in messages if (vote, ts) in message.history)

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        slack = self._slack  # n − TD + b
        possible = survivors(messages, slack)
        correct_votes = set()
        for message in possible:
            if self._history_support(messages, message.vote, message.ts) > self._b:
                correct_votes.add(message.vote)
        if len(correct_votes) == 1:
            return next(iter(correct_votes))
        if len(correct_votes) > 1:
            return ANY_VALUE
        zero_ts = sum(1 for message in messages if message.ts == 0)
        if zero_ts > slack:
            if self._ensure_unanimity:
                majority = majority_value(self._votes(messages))
                if majority is not None:
                    return majority
            return ANY_VALUE
        return NULL_VALUE
