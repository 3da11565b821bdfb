"""Execution traces of round-model runs.

The engine records one :class:`RoundRecord` per executed round: how many
messages were sent/delivered, whether the communication predicates held, and
optional state snapshots.  Traces power the invariant checkers, the metrics
module and the figure benches (which need to point at the exact round in
which a predicate held or a decision fired).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.types import Decision, ProcessId, RoundInfo


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one executed round."""

    info: RoundInfo
    sent_count: int
    delivered_count: int
    pgood: bool
    pcons: bool
    prel: bool
    #: Optional per-process state snapshots ``pid → (vote, ts, history)``.
    snapshots: Dict[ProcessId, Tuple] = field(default_factory=dict)
    #: Decisions that fired in this round.
    decisions: Tuple[Decision, ...] = ()


@dataclass
class ExecutionTrace:
    """The full record of a run."""

    records: List[RoundRecord] = field(default_factory=list)
    #: First decision of each process.
    decisions: Dict[ProcessId, Decision] = field(default_factory=dict)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)
        for decision in record.decisions:
            self.decisions.setdefault(decision.process, decision)

    @property
    def rounds_executed(self) -> int:
        return len(self.records)

    def decided_values(self) -> set:
        """The set of values decided by any process in this trace."""
        return {decision.value for decision in self.decisions.values()}
