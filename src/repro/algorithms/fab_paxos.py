"""FaB Paxos [16] — class 1, Byzantine faults, ``n > 5b`` (Section 5.1).

Instantiation: ``TD = ⌈(n + 3b + 1)/2⌉``, ``FLAG = *``, ``Selector = Π``,
Algorithm 6 (= Algorithm 2 with that ``TD``) as FLV.

Two rounds per phase and no timestamps/history — the "fast" Byzantine
consensus, paying with the highest resilience requirement of the three
classes.  The paper notes the instantiation slightly improves the original's
selection rule: with ``n = 7, b = 1`` the original needs 4 matching
messages to select where Algorithm 6 needs 3 (footnote 13) — asserted in
``tests/algorithms/test_fab_paxos.py``.

The original FaB Paxos uses a coordinator-based, signature-based ``Pcons``
implementation; running this spec on the ``pcons-auth`` or
``pcons-sigfree`` engine (:class:`~repro.network.stack.PconsStackScheduler`
with either WIC implementation) yields the coordinator-free /
signature-free variants mentioned in the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.registry import AlgorithmSpec, register
from repro.core.classification import AlgorithmClass
from repro.core.flv_variants import FaBPaxosFLV, fab_paxos_threshold
from repro.core.parameters import ConsensusParameters
from repro.core.selector import AllProcessesSelector
from repro.core.types import FaultModel, Flag


@register("fab-paxos")
def build_fab_paxos(n: int, b: Optional[int] = None) -> AlgorithmSpec:
    """Build FaB Paxos for ``n`` processes.

    ``b`` defaults to the maximum tolerated, ``⌈n/5⌉ − 1`` (``n > 5b``).
    """
    if b is None:
        b = (n - 1) // 5
    model = FaultModel(n=n, b=b, f=0)
    if n <= 5 * b:
        raise ValueError(f"FaB Paxos requires n > 5b, got n={n}, b={b}")
    td = fab_paxos_threshold(model)
    parameters = ConsensusParameters(
        model=model,
        threshold=td,
        flag=Flag.ANY,
        flv=FaBPaxosFLV(model, td),
        selector=AllProcessesSelector(model),
    )
    return AlgorithmSpec(
        name="FaB Paxos",
        parameters=parameters,
        algorithm_class=AlgorithmClass.CLASS_1,
        paper_section="5.1",
        notes="Byzantine, f=0, TD=⌈(n+3b+1)/2⌉, 2 rounds/phase, vote-only state",
    )
