"""State machine replication on top of repeated consensus (Section 5.3).

Paxos and PBFT "solve a sequence of instances of consensus"; this package
provides that sequence: a replicated log where each slot is decided by one
instance of the generic algorithm, and pluggable state machines applied in
log order.
"""

from repro.smr.log import LogEntry, ReplicatedLog
from repro.smr.machine import Command, KeyValueStore, StateMachine
from repro.smr.serve import (
    ServeConfig,
    ServeReport,
    WorkloadSpec,
    run_serve,
    sweep_serve,
)

__all__ = [
    "Command",
    "KeyValueStore",
    "LogEntry",
    "ReplicatedLog",
    "ServeConfig",
    "ServeReport",
    "StateMachine",
    "WorkloadSpec",
    "run_serve",
    "sweep_serve",
]
