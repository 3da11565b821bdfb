"""Randomized consensus support (Section 6 of the paper).

Two modifications turn Algorithm 1 into a randomized binary consensus
algorithm:

1. Line 11's deterministic choice is replaced by a coin flip: ``select_p :=
   1 or 0 with probability 0.5``.  Implemented as a
   :data:`~repro.core.parameters.Coin` installed in
   :class:`~repro.core.parameters.GenericConsensusConfig`.
2. The communication assumption is ``Prel`` in *every* round (at least
   ``n − b − f`` messages per correct process per round) instead of the
   eventual ``Pcons``/``Pgood`` predicates — realized by
   :class:`~repro.rounds.policies.AsyncPrelPolicy`.

Correspondingly, FLV must satisfy the stronger liveness variant: any vector
of ``n − b − f`` messages yields a non-``null`` result.  Algorithms 2 and 3
(classes 1 and 2) satisfy it; Algorithm 4 (class 3) does not — the paper
conjectures class-3 algorithms cannot be randomized this way, and
``tests/core/test_randomized.py`` exhibits the failing vector.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.parameters import Coin, ConsensusParameters, GenericConsensusConfig
from repro.core.types import Phase, ProcessId, Value
from repro.engine.assembly import build_instance
from repro.engine.kernel import run_instance
from repro.engine.outcome import Outcome
from repro.engine.scheduler import LockstepScheduler
from repro.rounds.policies import AsyncPrelPolicy
from repro.utils.rng import SeededRng


def make_coin(
    seed: int, process: ProcessId, values: Sequence[Value] = (0, 1)
) -> Coin:
    """A per-process fair coin over ``values`` (deterministic given seed).

    Each process must flip *independently* — a shared coin would make the
    problem trivial — so the stream is keyed by process id.
    """
    if len(values) < 2:
        raise ValueError("a coin needs at least two outcomes")
    stream = SeededRng(seed).stream("coin", process=process)
    pool = list(values)

    def coin(phase: Phase) -> Value:
        return pool[stream.randrange(len(pool))]

    return coin


def check_randomizable(parameters: ConsensusParameters) -> bool:
    """Can these parameters be adapted per Section 6?

    True iff the FLV instantiation satisfies the strengthened FLV-liveness
    (classes 1 and 2); class-3 FLVs report ``supports_prel_liveness=False``.
    """
    return parameters.flv.requirements.supports_prel_liveness


def run_randomized_consensus(
    parameters: ConsensusParameters,
    initial_values: dict,
    *,
    seed: int = 0,
    max_phases: int = 200,
    byzantine: Optional[dict] = None,
    coin_values: Sequence[Value] = (0, 1),
) -> Outcome:
    """Run the randomized adaptation under a ``Prel``-only adversary.

    Terminates with probability 1; ``max_phases`` bounds the simulation (the
    expected number of phases is exponential in n in the worst case but tiny
    for the adversaries implemented here).
    """
    if not check_randomizable(parameters):
        raise ValueError(
            f"{parameters.flv.name} does not satisfy the strengthened "
            "FLV-liveness required by randomized algorithms (Section 6)"
        )
    rng = SeededRng(seed)

    # Coins must be independent across processes, so each process gets its
    # own config instead of the one ``config=`` shares across all of them.
    def config_for(pid: ProcessId) -> GenericConsensusConfig:
        return GenericConsensusConfig(coin=make_coin(seed, pid, coin_values))

    instance = build_instance(
        parameters, initial_values, byzantine=byzantine, config_for=config_for
    )
    return run_instance(
        instance,
        LockstepScheduler(AsyncPrelPolicy(rng.stream("prel-adversary"))),
        max_phases=max_phases,
        record_snapshots=False,
    )
