"""The unified outcome of a kernel run.

One :class:`Outcome` type serves every timing discipline and observation
mode: decisions (with rounds and phases), timing metrics (for timed
schedulers), message accounting, the consensus property report, and — when
``observe="full"`` — the execution trace with per-round predicate
evaluations.  Fields that a given discipline cannot produce are ``None`` or
empty (e.g. ``decision_times`` under lockstep, ``trace`` in metrics mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional

from repro.analysis.trace import ExecutionTrace
from repro.core.parameters import ConsensusParameters
from repro.core.process import GenericConsensusProcess, RoundStructure
from repro.core.types import Decision, ProcessId, Value
from repro.observability.telemetry import Telemetry
from repro.rounds.base import RoundProcess, RunContext


@dataclass
class Outcome:
    """Everything a caller might want to know about one kernel run."""

    parameters: ConsensusParameters
    structure: RoundStructure
    processes: Dict[ProcessId, RoundProcess]
    initial_values: Dict[ProcessId, Value]
    context: RunContext
    #: The paper's *correct* processes: honest and never crashing under this
    #: execution's crash schedule, whether or not the run reached the crash
    #: round (``context.correct`` still counts a process doomed to crash in
    #: a round the run never executed).  Termination is judged over this
    #: set — the one the kernel's early stop waits for.
    correct: FrozenSet[ProcessId]
    #: First decision of each honest process that decided.
    decisions: Dict[ProcessId, Decision]
    #: pid → simulated time of its decision (timed schedulers only).
    decision_times: Dict[ProcessId, float]
    rounds_executed: int
    #: Simulated end time of the run; ``None`` for untimed disciplines.
    simulated_time: Optional[float]
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    #: The observation mode the run used (``"full"`` or ``"metrics"``).
    observe: str
    #: Full execution trace; ``None`` in metrics mode.
    trace: Optional[ExecutionTrace] = None
    #: Phase-time instrumentation registry: the one the caller passed, or
    #: ``None``.
    telemetry: Optional[Telemetry] = None

    # -- decisions ---------------------------------------------------------

    @property
    def decided_values(self) -> set:
        """The set of values decided by any honest process."""
        return {decision.value for decision in self.decisions.values()}

    @property
    def decided_value(self) -> Optional[Value]:
        """The single agreed value, or ``None`` (no decision / disagreement).

        The SMR serving loop commits whole batches through this: one value
        per slot when agreement held, ``None`` routes to retry handling.
        """
        values = self.decided_values
        if len(values) == 1:
            return next(iter(values))
        return None

    @property
    def decided_value_by_process(self) -> Dict[ProcessId, Value]:
        return {pid: decision.value for pid, decision in self.decisions.items()}

    @property
    def honest_processes(self) -> Dict[ProcessId, GenericConsensusProcess]:
        return {
            pid: process
            for pid, process in self.processes.items()
            if isinstance(process, GenericConsensusProcess)
        }

    @property
    def rounds_to_last_decision(self) -> Optional[int]:
        rounds = [decision.round for decision in self.decisions.values()]
        return max(rounds) if rounds else None

    @property
    def phases_to_last_decision(self) -> Optional[int]:
        rounds = self.rounds_to_last_decision
        if rounds is None:
            return None
        return self.structure.info(rounds).phase

    # -- timing ------------------------------------------------------------

    @property
    def last_decision_time(self) -> Optional[float]:
        return max(self.decision_times.values()) if self.decision_times else None

    # -- properties of the run ---------------------------------------------

    @property
    def agreement_holds(self) -> bool:
        """No two honest processes decided differently."""
        return len(self.decided_values) <= 1

    @property
    def all_correct_decided(self) -> bool:
        """Every correct (honest, never-crashing) process decided."""
        return all(pid in self.decisions for pid in self.correct)

    def invariant_report(self) -> Mapping[str, bool]:
        """Boolean summary of agreement/validity/unanimity/termination.

        The campaign result store persists exactly this mapping, so every
        JSONL row carries the same property columns under both schedulers.
        """
        from repro.analysis.invariants import evaluate_properties

        return evaluate_properties(
            decided_values=self.decided_value_by_process,
            initial_values=self.initial_values,
            byzantine=self.context.byzantine,
            correct=self.correct,
        )
