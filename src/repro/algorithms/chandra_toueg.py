"""Chandra-Toueg (CT) [5] — benign faults, ``n > 2f``, rotating coordinator.

Instantiation: ``TD = ⌈(n + 1)/2⌉``, ``FLAG = φ``, ``Selector`` = the
rotating-coordinator function ``φ ↦ (φ − 1) mod n`` (Section 4.2), class-2
FLV (Algorithm 3 with ``b = 0``).

CT originally relies on the ♦S failure detector; in the round model the
detector's role — eventually reaching a phase whose coordinator is correct
and heard by everyone — is played by the combination of the rotating
selector and the eventual good phase.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.registry import AlgorithmSpec, register
from repro.core.classification import AlgorithmClass
from repro.core.flv_class2 import FLVClass2
from repro.core.flv_variants import paxos_threshold
from repro.core.parameters import ConsensusParameters
from repro.core.selector import RotatingCoordinatorSelector
from repro.core.types import FaultModel, Flag


@register("chandra-toueg")
def build_chandra_toueg(n: int, f: Optional[int] = None) -> AlgorithmSpec:
    """Build CT for ``n`` processes (``f`` defaults to ``⌈n/2⌉ − 1``)."""
    if f is None:
        f = (n - 1) // 2
    model = FaultModel(n=n, b=0, f=f)
    if n <= 2 * f:
        raise ValueError(f"CT requires n > 2f, got n={n}, f={f}")
    td = paxos_threshold(model)  # also ⌈(n+1)/2⌉ — a majority
    parameters = ConsensusParameters(
        model=model,
        threshold=td,
        flag=Flag.CURRENT_PHASE,
        flv=FLVClass2(model, td),
        selector=RotatingCoordinatorSelector(model),
    )
    return AlgorithmSpec(
        name="Chandra-Toueg",
        parameters=parameters,
        algorithm_class=AlgorithmClass.CLASS_2,
        paper_section="5.3 / Table 1",
        notes="benign, rotating coordinator, majority threshold",
    )
