"""Process state for the generic consensus algorithm (Algorithm 1, lines 1-4).

The state of process ``p`` consists of:

* ``vote``    — the value currently considered for decision (init: ``init_p``),
* ``ts``      — the most recent phase in which ``vote`` was validated (init 0),
* ``history`` — the set of ``(value, phase)`` pairs recording every update of
  ``vote`` performed in a selection round (init ``{(init_p, 0)}``).

Classes 1 and 2 of the classification do not need all three variables;
:meth:`ConsensusState.footprint` reports which variables an instantiation
actually reads, which the Table-1 bench uses to reproduce the "Process state"
column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from repro.core.types import HistoryEntry, Phase, Value


@dataclass
class ConsensusState:
    """Mutable per-process state ``(vote, ts, history)``."""

    vote: Value
    ts: Phase = 0
    history: Set[HistoryEntry] = field(default_factory=set)
    decided: Optional[Value] = None
    decided_phase: Optional[Phase] = None

    @classmethod
    def initial(cls, initial_value: Value) -> "ConsensusState":
        """Lines 2-4 of Algorithm 1."""
        return cls(vote=initial_value, ts=0, history={(initial_value, 0)})

    def record_selection(self, value: Value, phase: Phase) -> None:
        """Lines 13-14: set the vote and log the update in the history."""
        self.vote = value
        self.history.add((value, phase))

    def record_validation(
        self, value: Value, phase: Phase, *, also_log_history: bool = False
    ) -> None:
        """Lines 23-24: adopt a validated value and bump the timestamp.

        The paper's pseudocode does *not* add the validated pair to the
        history (only selection-round updates are logged, line 14).  The
        ``also_log_history`` switch enables the logging variant for ablation
        experiments (the "line 26 subtlety": see :meth:`revert_vote`).
        """
        self.vote = value
        self.ts = phase
        if also_log_history:
            self.history.add((value, phase))

    def revert_vote(self) -> None:
        """Line 26: revert ``vote`` to the value recorded for ``ts``.

        The paper writes "vote_p ← v such that (v, ts_p) ∈ history_p".  If no
        pair matches (possible because validation does not log to the
        history, lines 23-24) or several do, the vote is left unchanged —
        the only safe deterministic reading.
        """
        candidates = [value for (value, phase) in self.history if phase == self.ts]
        if len(candidates) == 1:
            self.vote = candidates[0]

    def record_decision(self, value: Value, phase: Phase) -> None:
        """Line 32: remember the first decision (decisions are stable)."""
        if self.decided is None:
            self.decided = value
            self.decided_phase = phase

    @property
    def has_decided(self) -> bool:
        """True once this process has decided."""
        return self.decided is not None

    def snapshot(self) -> Tuple[Value, Phase, frozenset]:
        """An immutable copy ``(vote, ts, history)`` for traces."""
        return (self.vote, self.ts, frozenset(self.history))

    def footprint(self, uses_ts: bool, uses_history: bool) -> Tuple[str, ...]:
        """The state variables an instantiation actually uses.

        Reproduces the "Process state" column of Table 1: class 1 reports
        ``('vote',)``, class 2 ``('vote', 'ts')`` and class 3
        ``('vote', 'ts', 'history')``.
        """
        names = ["vote"]
        if uses_ts:
            names.append("ts")
        if uses_history:
            names.append("history")
        return tuple(names)
