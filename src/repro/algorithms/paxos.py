"""Paxos [11] — benign faults, ``n > 2f``, leader-based (Section 5.3).

Instantiation: ``TD = ⌈(n + 1)/2⌉``, ``FLAG = φ``, ``Selector`` implementing
leader election (an Ω oracle), Algorithm 7 as FLV.

The paper discusses Paxos inside class 3 to exhibit its kinship with PBFT
(their selection rounds both derive from the class-3 FLV), while Table 1
places it in class 2 — with ``b = 0`` classes 2 and 3 coincide because the
history adds nothing.  ``build_paxos`` uses Algorithm 7 (the simplified
benign FLV); a test confirms it agrees with both the class-2 and class-3
generic FLVs on benign inputs.

Any phase-indexed ``oracle(p, φ)`` works as the leader election.  With one
that lets processes disagree before some phase, phases before it can fail
(SL1 violated) and the run decides in the first phase whose leader is
stable and correct — Paxos's indulgent behaviour.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.algorithms.registry import AlgorithmSpec, register
from repro.core.classification import AlgorithmClass
from repro.core.flv_variants import PaxosFLV, paxos_threshold
from repro.core.parameters import ConsensusParameters
from repro.core.selector import LeaderSelector, OmegaOracle
from repro.core.types import FaultModel, Flag, Phase, ProcessId


@register("paxos")
def build_paxos(
    n: int,
    f: Optional[int] = None,
    *,
    oracle: Optional[Callable[[ProcessId, Phase], ProcessId]] = None,
) -> AlgorithmSpec:
    """Build Paxos for ``n`` processes.

    ``f`` defaults to the maximum tolerated, ``⌈n/2⌉ − 1`` (``n > 2f``).
    ``oracle`` is the leader-election oracle; defaults to a stable Ω
    electing process ``n − 1`` (any correct process works).
    """
    if f is None:
        f = (n - 1) // 2
    model = FaultModel(n=n, b=0, f=f)
    if n <= 2 * f:
        raise ValueError(f"Paxos requires n > 2f, got n={n}, f={f}")
    td = paxos_threshold(model)
    parameters = ConsensusParameters(
        model=model,
        threshold=td,
        flag=Flag.CURRENT_PHASE,
        flv=PaxosFLV(model, td),
        selector=LeaderSelector(model, oracle or OmegaOracle(n - 1)),
    )
    return AlgorithmSpec(
        name="Paxos",
        parameters=parameters,
        algorithm_class=AlgorithmClass.CLASS_2,
        paper_section="5.3",
        notes="benign, leader-based, TD=⌈(n+1)/2⌉; class 2 (= class 3 when b=0)",
    )
