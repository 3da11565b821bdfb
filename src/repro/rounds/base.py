"""Round-model process interface and run context.

A :class:`RoundProcess` is the code of one process in the communication-
closed round model: ``send`` is the paper's sending function ``S_p^r``,
``receive`` applies the transition function ``T_p^r`` to the vector of
messages received this round.  Both honest protocol instances and Byzantine
strategies implement this interface; the engine enforces that *who* a message
claims to come from is always the true sender (honest processes cannot be
impersonated, Section 2.1).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Set

from repro.core.types import FaultModel, ProcessId, RoundInfo

#: Messages a process emits in one round: destination → payload.
Outbound = Mapping[ProcessId, object]

#: Messages a process receives in one round: sender → payload.
Inbound = Mapping[ProcessId, object]

#: The full delivery outcome of a round: receiver → (sender → payload).
DeliveryMatrix = Dict[ProcessId, Dict[ProcessId, object]]

#: What every process put on the wire in a round: sender → (dest → payload).
OutboundMatrix = Dict[ProcessId, Dict[ProcessId, object]]


class RoundProcess(abc.ABC):
    """One process of a round-based algorithm."""

    @abc.abstractmethod
    def send(self, info: RoundInfo) -> Outbound:
        """The sending function ``S_p^r``: destination → payload."""

    @abc.abstractmethod
    def receive(self, info: RoundInfo, received: Inbound) -> None:
        """The transition function ``T_p^r`` applied to this round's vector."""


@dataclass
class RunContext:
    """Mutable bookkeeping shared between the engine and delivery policies.

    Tracks which processes are Byzantine (fixed for the run) and which have
    crashed so far (grows during the run); the set of *currently correct*
    processes is derived from both.  Policies use it to decide which
    deliveries the active communication predicate obliges them to perform.
    """

    model: FaultModel
    byzantine: FrozenSet[ProcessId] = frozenset()
    crashed: Set[ProcessId] = field(default_factory=set)

    def __post_init__(self) -> None:
        if len(self.byzantine) > self.model.b:
            raise ValueError(
                f"{len(self.byzantine)} Byzantine processes exceed b={self.model.b}"
            )
        for pid in self.byzantine:
            if not 0 <= pid < self.model.n:
                raise ValueError(f"Byzantine id {pid} out of range")

    @property
    def honest(self) -> FrozenSet[ProcessId]:
        """Processes that execute the algorithm faithfully (may crash)."""
        return frozenset(
            pid for pid in self.model.processes if pid not in self.byzantine
        )

    @property
    def correct(self) -> FrozenSet[ProcessId]:
        """Honest processes that have not crashed (so far)."""
        return frozenset(
            pid
            for pid in self.model.processes
            if pid not in self.byzantine and pid not in self.crashed
        )

    def mark_crashed(self, pid: ProcessId) -> None:
        """Record a crash; crashing a Byzantine process is a no-op."""
        if pid in self.byzantine:
            return
        if len(self.crashed) >= self.model.f and pid not in self.crashed:
            raise ValueError(
                f"crashing {pid} would exceed f={self.model.f} crash faults"
            )
        self.crashed.add(pid)
