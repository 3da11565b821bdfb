"""FLV for class 1 (Algorithm 2 of the paper).

Class 1 is characterized by ``FLAG = *`` and ``TD > (n + 3b + f)/2``, which
forces ``n > 5b + 3f``.  Only the ``vote`` field of the received messages is
inspected — no timestamps, no history — which is why class-1 algorithms keep
the smallest process state, at the price of the largest ``n``.

Pseudocode (Algorithm 2)::

    1: correctVotes ← { v : |{(v,−,−,−) ∈ μ}| > n − TD + b }
    2: if |correctVotes| = 1 then return v ∈ correctVotes
    4: else if |μ| > 2(n − TD + b) then return ?
    6: else return null

Intuition (Figure 1 of the paper, n=6, b=1, f=0, TD=5): once ``v1`` is
locked, at least ``TD − b`` honest processes vote ``v1``, so at most
``n − TD + b`` messages can carry any other value; any vector larger than
``2(n − TD + b)`` therefore contains ``v1`` more than ``n − TD + b`` times
and line 1 catches it.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.flv import FLVFunction, FLVRequirements, FLVResult
from repro.core.types import FaultModel, SelectionMessage
from repro.utils.det import value_counts
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE


def class1_min_threshold(model: FaultModel) -> int:
    """Smallest integer ``TD`` with ``TD > (n + 3b + f)/2``."""
    return (model.n + 3 * model.b + model.f) // 2 + 1


class FLVClass1(FLVFunction):
    """Algorithm 2: vote-only locked-value detection."""

    name = "flv-class1"

    def __init__(self, model: FaultModel, threshold: int) -> None:
        super().__init__(model, threshold)

    @property
    def requirements(self) -> FLVRequirements:
        return FLVRequirements(
            uses_ts=False,
            uses_history=False,
            supports_prel_liveness=True,
        )

    def satisfies_liveness_bound(self) -> bool:
        """True iff ``TD > (n + 3b + f)/2`` (Theorem 2's liveness condition)."""
        return 2 * self.threshold > self._n + 3 * self._b + self.model.f

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        slack = self._slack  # n − TD + b
        counts = value_counts(self._votes(messages))
        correct_votes = [value for value, count in counts.items() if count > slack]
        if len(correct_votes) == 1:
            return correct_votes[0]
        if len(messages) > 2 * slack:
            return ANY_VALUE
        return NULL_VALUE
