"""PBFT [4] — class 3, Byzantine faults, ``n > 3b`` (Section 5.3).

Instantiation: ``TD = 2b + 1``, ``FLAG = φ``, ``Selector = Π``, Algorithm 8
as FLV (the paper fixes ``n = 3b + 1`` to stay closest to PBFT; we accept
any ``n > 3b`` since Algorithm 8's conditions are expressed through
``n − TD + b``).

PBFT reaches the optimal Byzantine resilience by paying with the unbounded
``history`` variable (dissemination-quorum certificates).  PBFT does not
provide unanimity, hence Algorithm 8 is the generic class-3 FLV (Algorithm
4) minus its lines 8-9 — ``FLVClass3(ensure_unanimity=False)``, which is
what the batch planner and the columnar evaluators see.  The original uses
a coordinator-based signature-free ``Pcons`` implementation; running on the
``pcons-sigfree`` engine (:mod:`repro.network.stack` with the echo
implementation) gives the coordinator-free variant the paper mentions.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.registry import AlgorithmSpec, register
from repro.core.classification import AlgorithmClass
from repro.core.flv_class3 import FLVClass3
from repro.core.flv_variants import pbft_threshold
from repro.core.parameters import ConsensusParameters
from repro.core.selector import AllProcessesSelector
from repro.core.types import FaultModel, Flag


@register("pbft")
def build_pbft(n: int, b: Optional[int] = None) -> AlgorithmSpec:
    """Build PBFT for ``n`` processes.

    ``b`` defaults to the maximum tolerated, ``⌈n/3⌉ − 1`` (``n > 3b``).
    """
    if b is None:
        b = (n - 1) // 3
    model = FaultModel(n=n, b=b, f=0)
    if n <= 3 * b:
        raise ValueError(f"PBFT requires n > 3b, got n={n}, b={b}")
    td = pbft_threshold(model)
    parameters = ConsensusParameters(
        model=model,
        threshold=td,
        flag=Flag.CURRENT_PHASE,
        flv=FLVClass3(model, td, ensure_unanimity=False),
        selector=AllProcessesSelector(model),
    )
    return AlgorithmSpec(
        name="PBFT",
        parameters=parameters,
        algorithm_class=AlgorithmClass.CLASS_3,
        paper_section="5.3",
        notes="Byzantine, f=0, TD=2b+1, optimal resilience n>3b, "
        "unbounded history (dissemination quorums), no unanimity",
    )
