"""repro — generic construction of consensus algorithms for benign and
Byzantine faults.

A full reproduction of Rütti, Milosevic & Schiper (DSN 2010): the generic
round-based consensus algorithm, its three classes of instantiations
(OneThirdRule, FaB Paxos / Paxos, Chandra-Toueg, MQB / PBFT), the randomized
adaptation (Ben-Or), and the simulation substrates they run on (round model,
partial synchrony with communication predicates, Byzantine adversaries,
quorum systems, discrete-event timing, state machine replication).

Quickstart::

    from repro import AlgorithmClass, FaultModel, build_class_parameters
    from repro.engine import LockstepScheduler, build_instance, run_instance

    model = FaultModel(n=4, b=1)                       # PBFT territory
    params = build_class_parameters(AlgorithmClass.CLASS_3, model)
    instance = build_instance(params, {0: "A", 2: "B", 3: "A"},
                              byzantine={1: "equivocator"})
    outcome = run_instance(instance, LockstepScheduler())
    print(outcome.decisions)

Execution kernel
----------------

Both timing disciplines run on one kernel (:mod:`repro.engine`):
:func:`~repro.engine.build_instance` assembles an instance once,
:func:`~repro.engine.run_instance` executes it under a
:class:`~repro.engine.LockstepScheduler` (oracle communication predicates)
or a :class:`~repro.engine.TimedScheduler` (Δ-paced deadline delivery over
partial synchrony), and ``observe="full" | "metrics"`` selects between a
complete execution trace and the trace-free hot path campaign sweeps use.

Scenarios
---------

:mod:`repro.scenarios` is the one dialect every environment is described
in: a declarative :class:`~repro.scenarios.ScenarioSpec` (Byzantine
placement and strategy per slot, crash script, communication schedule —
reliable / good-bad with pluggable bad behaviour / partition / i.i.d. loss
/ silence / GST — and timed-network conditions) compiles onto **both**
schedulers via :func:`~repro.scenarios.compile_scenario`.  Named presets
live in :data:`~repro.scenarios.SCENARIO_REGISTRY` (``repro scenario
list``); the campaign ``scenarios`` axis and the ``gauntlet`` campaign
resolve through it::

    from repro.scenarios import run_scenario

    outcome = run_scenario("partition_heal", params, engine="timed", rng=7)

Campaigns
---------

:mod:`repro.campaigns` scales single runs into declarative scenario
sweeps: a :class:`~repro.campaigns.CampaignSpec` crosses algorithms,
``(n, b, f)`` models, scenarios, engines and
repetitions into a grid; :func:`~repro.campaigns.run_campaign` executes it
on a process pool with per-run fault isolation and coordinate-derived
seeds (byte-identical results at any worker count); results persist as
JSONL rows and aggregate into per-cell latency / message-complexity
summaries.  From the shell: ``python -m repro.cli campaign run grid-demo
--workers 4`` then ``python -m repro.cli campaign report
grid-demo.results.jsonl``.
"""

from repro.core import (
    AlgorithmClass,
    AllProcessesSelector,
    ConsensusParameters,
    ConsensusState,
    FLVClass1,
    FLVClass2,
    FLVClass3,
    FLVFunction,
    FaultModel,
    Flag,
    GenericConsensusConfig,
    GenericConsensusProcess,
    LeaderSelector,
    ParameterError,
    RotatingCoordinatorSelector,
    RotatingSubsetSelector,
    RoundKind,
    RoundStructure,
    Selector,
    build_class_parameters,
    classify,
)
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE

__version__ = "1.0.0"

__all__ = [
    "ANY_VALUE",
    "AlgorithmClass",
    "AllProcessesSelector",
    "ConsensusParameters",
    "ConsensusState",
    "FLVClass1",
    "FLVClass2",
    "FLVClass3",
    "FLVFunction",
    "FaultModel",
    "Flag",
    "GenericConsensusConfig",
    "GenericConsensusProcess",
    "LeaderSelector",
    "NULL_VALUE",
    "ParameterError",
    "RotatingCoordinatorSelector",
    "RotatingSubsetSelector",
    "RoundKind",
    "RoundStructure",
    "Selector",
    "__version__",
    "build_class_parameters",
    "classify",
]
