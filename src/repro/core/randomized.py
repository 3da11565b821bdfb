"""Randomized consensus support (Section 6 of the paper).

Two modifications turn Algorithm 1 into a randomized binary consensus
algorithm:

1. Line 11's deterministic choice is replaced by a coin flip: ``select_p :=
   1 or 0 with probability 0.5``.  An algorithm says so by carrying the
   :data:`RANDOMIZED` marker as its config's ``coin`` (what the ``ben-or``
   registry entry does); :func:`~repro.engine.assembly.build_instance`
   trades the marker for one :func:`make_coin` stream per honest process
   (:func:`seeded_configs`), drawn from the run's seed over the run's own
   two proposals.
2. The communication assumption is ``Prel`` in *every* round (at least
   ``n − b − f`` messages per correct process per round) instead of the
   eventual ``Pcons``/``Pgood`` predicates — the ``async-prel`` comm kind
   (:class:`~repro.engine.scheduler.PrelScheduler`).

Correspondingly, FLV must satisfy the stronger liveness variant: any vector
of ``n − b − f`` messages yields a non-``null`` result.  Algorithms 2 and 3
(classes 1 and 2) satisfy it; Algorithm 4 (class 3) does not — the paper
conjectures class-3 algorithms cannot be randomized this way, and
``tests/core/test_randomized.py`` exhibits the failing vector.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence

from repro.core.parameters import Coin, ConsensusParameters, GenericConsensusConfig
from repro.core.types import Phase, ProcessId, Value
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


def RANDOMIZED(phase: Phase) -> Value:
    """The marker coin: "line 11 is a coin flip", before any run has a seed.

    Planners and gates read it as ``config.coin is not None``; assembly
    replaces it per process, so flipping it means an instance was built
    around :func:`~repro.engine.assembly.build_instance`.
    """
    raise ValueError("the RANDOMIZED marker was never seeded into a coin")


def seeded_configs(
    parameters: ConsensusParameters,
    config: GenericConsensusConfig,
    proposals: Iterable[Value],
    seed: Optional[int],
) -> Callable[[ProcessId], GenericConsensusConfig]:
    """``pid → config`` for one run of a :data:`RANDOMIZED` ``config``.

    Every process gets its own :func:`make_coin` stream of ``seed`` over
    the honest ``proposals`` (binary consensus: at most two distinct ones).
    """
    if not check_randomizable(parameters):
        raise ValueError(
            f"{parameters.flv.name} does not satisfy the strengthened "
            "FLV-liveness required by randomized algorithms (Section 6)"
        )
    if seed is None:
        raise ValueError(
            "a randomized instance needs its run's seed: "
            "build_instance(..., seed=...) or run_scenario(..., rng=...)"
        )
    pool = sorted(set(proposals), key=repr)
    if len(pool) > 2:
        raise ValueError(
            f"randomized consensus is binary, got {len(pool)} distinct "
            f"proposals: {pool}"
        )
    if len(pool) == 1:
        pool *= 2  # unanimous: the coin's only outcome is the one proposal
    return lambda pid: replace(config, coin=make_coin(seed, pid, pool))
