"""Instance assembly: build one consensus instance, usable by any scheduler.

:func:`build_instance` performs the setup every execution path used to
duplicate: validate the fault budget, build honest
:class:`~repro.core.process.GenericConsensusProcess` instances and Byzantine
strategies, derive the :class:`~repro.core.process.RoundStructure`, and
create the shared :class:`~repro.rounds.base.RunContext`.  The resulting
:class:`Instance` also carries the canonical decision probe and state
snapshot observer, so equivocation handling and decision detection are
identical under every timing discipline.  A randomized config (Section 6)
is seeded here: each honest process gets its own coin stream of the run's
``seed``, so no execution path can run one coinless or on a shared coin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Optional

from repro.core.parameters import ConsensusParameters, GenericConsensusConfig
from repro.core.process import GenericConsensusProcess, RoundStructure
from repro.core.randomized import RANDOMIZED, seeded_configs
from repro.core.types import Decision, Flag, ProcessId, RoundInfo, Value
from repro.faults.registry import ByzantineSpec, build_byzantine
from repro.rounds.base import RoundProcess, RunContext


@lru_cache(maxsize=64)
def _shared_structure(flag: Flag, skip_first_selection: bool) -> RoundStructure:
    """One :class:`RoundStructure` per (flag, skip) pair.

    Structures are immutable after construction, and campaign sweeps build
    thousands of instances with the same two parameters — sharing also keeps
    the round-info memo warm across runs.
    """
    return RoundStructure(flag, skip_first_selection=skip_first_selection)


@dataclass
class Instance:
    """One fully-assembled consensus instance, ready for any scheduler."""

    parameters: ConsensusParameters
    config: GenericConsensusConfig
    structure: RoundStructure
    processes: Dict[ProcessId, RoundProcess]
    initial_values: Dict[ProcessId, Value]
    context: RunContext

    @property
    def honest_processes(self) -> Dict[ProcessId, GenericConsensusProcess]:
        return {
            pid: process
            for pid, process in self.processes.items()
            if isinstance(process, GenericConsensusProcess)
        }

    def decision_probe(
        self, pid: ProcessId, process: RoundProcess, info: RoundInfo
    ) -> Optional[Decision]:
        """First decision of an honest process, tagged with round and phase."""
        if isinstance(process, GenericConsensusProcess) and process.has_decided:
            round_number = process.decision_round or info.number
            return Decision(
                process=pid,
                value=process.decided,
                round=round_number,
                phase=self.structure.info(round_number).phase,
            )
        return None

    def snapshot(self, pid: ProcessId, process: RoundProcess) -> object:
        """State snapshot observer for full-trace runs."""
        if isinstance(process, GenericConsensusProcess):
            return process.state.snapshot()
        return None


def build_instance(
    parameters: ConsensusParameters,
    initial_values: Mapping[ProcessId, Value],
    *,
    config: Optional[GenericConsensusConfig] = None,
    byzantine: Optional[Mapping[ProcessId, ByzantineSpec]] = None,
    seed: Optional[int] = None,
) -> Instance:
    """Assemble processes, strategies and context for one instance.

    ``initial_values`` must provide a proposal for every honest process;
    ``byzantine`` maps process ids to strategies (at most ``b`` entries).
    ``seed`` is the run's seed; only a randomized ``config`` reads it (and
    refuses to be assembled without it), to give every honest process an
    independent coin over the instance's two proposals.
    """
    model = parameters.model
    config = config or GenericConsensusConfig()
    byzantine = dict(byzantine or {})
    if len(byzantine) > model.b:
        raise ValueError(
            f"{len(byzantine)} Byzantine processes exceed b={model.b}"
        )

    structure = _shared_structure(parameters.flag, config.skip_first_selection)
    per_process = None
    if config.coin is RANDOMIZED:
        honest = (v for pid, v in initial_values.items() if pid not in byzantine)
        per_process = seeded_configs(parameters, config, honest, seed)

    processes: Dict[ProcessId, RoundProcess] = {}
    initials: Dict[ProcessId, Value] = {}
    for pid in model.processes:
        if pid in byzantine:
            processes[pid] = build_byzantine(pid, byzantine[pid], parameters)
            continue
        if pid not in initial_values:
            raise ValueError(f"missing initial value for honest process {pid}")
        initials[pid] = initial_values[pid]
        processes[pid] = GenericConsensusProcess(
            pid,
            initial_values[pid],
            parameters,
            per_process(pid) if per_process is not None else config,
        )

    context = RunContext(model, byzantine=frozenset(byzantine))
    return Instance(
        parameters=parameters,
        config=config,
        structure=structure,
        processes=processes,
        initial_values=initials,
        context=context,
    )
