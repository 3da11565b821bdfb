"""MQB — the paper's **new** Byzantine consensus algorithm (Section 5.2).

MQB ("Masking Quorum Byzantine") fills the empty cell of Table 1: class 2
with ``f = 0``.  It requires ``n > 4b`` — strictly between FaB Paxos
(``n > 5b``) and PBFT (``n > 3b``) — and, unlike PBFT, does **not** need the
unbounded ``history`` variable: its state is just ``(vote, ts)``.

Instantiation: ``TD = ⌈(n + 2b + 1)/2⌉``, ``FLAG = φ``, ``Selector = Π``,
Algorithm 3 (class-2 FLV) with that ``TD``.

The quorums this threshold induces are *masking quorums* in the sense of
Malkhi-Reiter [15] (hence the name); ``tests/core/test_flv_variants.py``
checks the correspondence (footnote 10).  Depending on the ``Pcons``
implementation chosen — the ``pcons-auth`` / ``pcons-sigfree`` engines of
:mod:`repro.network.stack` — one obtains the coordinator-based or
coordinator-free variants the paper mentions.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.registry import AlgorithmSpec, register
from repro.core.classification import AlgorithmClass
from repro.core.flv_class2 import FLVClass2, mqb_threshold
from repro.core.parameters import ConsensusParameters
from repro.core.selector import AllProcessesSelector
from repro.core.types import FaultModel, Flag


@register("mqb")
def build_mqb(n: int, b: Optional[int] = None) -> AlgorithmSpec:
    """Build MQB for ``n`` processes.

    ``b`` defaults to the maximum tolerated, ``⌈n/4⌉ − 1`` (``n > 4b``).
    """
    if b is None:
        b = (n - 1) // 4
    model = FaultModel(n=n, b=b, f=0)
    if n <= 4 * b:
        raise ValueError(f"MQB requires n > 4b, got n={n}, b={b}")
    td = mqb_threshold(model)
    parameters = ConsensusParameters(
        model=model,
        threshold=td,
        flag=Flag.CURRENT_PHASE,
        flv=FLVClass2(model, td),
        selector=AllProcessesSelector(model),
    )
    return AlgorithmSpec(
        name="MQB",
        parameters=parameters,
        algorithm_class=AlgorithmClass.CLASS_2,
        paper_section="5.2",
        notes="new algorithm: n>4b without the unbounded history variable, "
        "TD=⌈(n+2b+1)/2⌉ (masking quorums)",
    )
