"""Run metrics: rounds/phases to decision, message counts, state sizes.

These power the latency and message-complexity benches (experiments X2 and
X3: ``benchmarks/bench_decision_latency.py``,
``benchmarks/bench_message_complexity.py``) and the Table-1 bench's "rounds
per phase" and "process state" columns.  :meth:`RunMetrics.from_outcome` reads a kernel
:class:`~repro.engine.outcome.Outcome` (including metrics-only runs, which
carry no trace — decision rounds come from the decisions themselves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (outcome uses analysis)
    from repro.engine.outcome import Outcome


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate measurements extracted from a finished run."""

    rounds_executed: int
    rounds_to_first_decision: Optional[int]
    rounds_to_last_decision: Optional[int]
    phases_to_last_decision: Optional[int]
    messages_sent: int
    messages_delivered: int
    decided_count: int
    max_history_size: int
    state_footprint: tuple

    @classmethod
    def from_outcome(cls, outcome: "Outcome") -> "RunMetrics":
        histories = [
            len(process.state.history)
            for process in outcome.honest_processes.values()
        ]
        return cls(
            rounds_executed=outcome.rounds_executed,
            rounds_to_first_decision=outcome.rounds_to_first_decision,
            rounds_to_last_decision=outcome.rounds_to_last_decision,
            phases_to_last_decision=outcome.phases_to_last_decision,
            messages_sent=outcome.messages_sent,
            messages_delivered=outcome.messages_delivered,
            decided_count=len(outcome.decisions),
            max_history_size=max(histories) if histories else 0,
            state_footprint=outcome.parameters.state_footprint,
        )

    @property
    def messages_per_round(self) -> float:
        """Average sent messages per executed round."""
        if self.rounds_executed == 0:
            return 0.0
        return self.messages_sent / self.rounds_executed

    def describe(self) -> str:
        return (
            f"rounds={self.rounds_executed}, "
            f"last_decision_round={self.rounds_to_last_decision}, "
            f"phases={self.phases_to_last_decision}, "
            f"msgs={self.messages_sent}, state={'/'.join(self.state_footprint)}"
        )
