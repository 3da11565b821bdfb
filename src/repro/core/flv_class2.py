"""FLV for class 2 (Algorithm 3 of the paper).

Class 2 is characterized by ``FLAG = φ`` and ``TD > 3b + f``, which forces
``n > 4b + 2f``.  When ``TD ≤ (n + 3b + f)/2`` locked values can no longer be
detected from votes alone, so class 2 additionally uses the timestamp ``ts``
(the last phase in which the vote was validated).

Pseudocode (Algorithm 3, ``{# … #}`` denotes a multiset)::

    1: possibleVotes ← {# (vote, ts, −, −) ∈ μ :
           |{(vote′, ts′, −, −) ∈ μ : vote = vote′ ∨ ts > ts′}| > n − TD + b #}
    2: correctVotes ← {(vote, −) ∈ possibleVotes :
           |{(vote′, −) ∈ possibleVotes : vote = vote′}| > b}
    3: if |correctVotes| = 1 then return its vote
    5: else if |μ| > n − TD + 2b then return ?
    7: else return null

A message survives line 1 when the number of received messages that either
carry the same vote or a *strictly smaller* timestamp exceeds ``n − TD + b``;
this is exactly the masking-quorum condition under which the vote may have
been validated.  Line 2 discards votes that fewer than ``b + 1`` surviving
messages support, eliminating pure Byzantine fabrications (Figure 2 of the
paper, n=5, b=1, f=0, TD=4).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.flv import FLVFunction, FLVRequirements, FLVResult
from repro.core.types import FaultModel, SelectionMessage, Value
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE


def class2_min_threshold(model: FaultModel) -> int:
    """Smallest integer ``TD`` with ``TD > 3b + f``."""
    return 3 * model.b + model.f + 1


def mqb_threshold(model: FaultModel) -> int:
    """The MQB threshold ``TD = ⌈(n + 2b + 1)/2⌉`` (Section 5.2).

    Chosen (footnote 12/14) so that the same number of received messages
    makes both the decision condition (line 31 of Algorithm 1) and the ``?``
    condition (line 5 of Algorithm 3) hold.
    """
    return (model.n + 2 * model.b + 1 + 1) // 2


def survivors(
    messages: Sequence[SelectionMessage], slack: int
) -> List[SelectionMessage]:
    """Line 1 of Algorithms 3 and 4: the ``possibleVotes`` multiset.

    ``slack`` is ``n − TD + b``.  Kept module-level because class 3 reuses the
    identical condition.
    """
    kept = []
    for message in messages:
        support = sum(
            1
            for other in messages
            if other.vote == message.vote or message.ts > other.ts
        )
        if support > slack:
            kept.append(message)
    return kept


class FLVClass2(FLVFunction):
    """Algorithm 3: vote + timestamp locked-value detection."""

    name = "flv-class2"

    @property
    def requirements(self) -> FLVRequirements:
        return FLVRequirements(
            uses_ts=True,
            uses_history=False,
            supports_prel_liveness=True,
        )

    def satisfies_liveness_bound(self) -> bool:
        """True iff ``TD > 3b + f`` (Theorem 3's liveness condition)."""
        return self.threshold > 3 * self._b + self.model.f

    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        slack = self._slack  # n − TD + b
        possible = survivors(messages, slack)
        vote_support: dict[Value, int] = {}
        for message in possible:
            vote_support[message.vote] = vote_support.get(message.vote, 0) + 1
        correct_votes = [
            vote for vote, count in vote_support.items() if count > self._b
        ]
        if len(correct_votes) == 1:
            return correct_votes[0]
        if len(messages) > slack + self._b:  # |μ| > n − TD + 2b
            return ANY_VALUE
        return NULL_VALUE
