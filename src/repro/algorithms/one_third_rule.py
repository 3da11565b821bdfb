"""OneThirdRule [6] — class 1, benign faults, ``n > 3f`` (Section 5.1).

Instantiation: ``TD = ⌈(2n + 1)/3⌉``, ``FLAG = *``, ``Selector = Π``,
Algorithm 2 as FLV.

The module also contains :class:`OriginalOneThirdRuleProcess`, a literal
transcription of the paper's Algorithm 5 (one merged selection+decision
round per phase).  Section 5.1 claims the instantiation is a *small
improvement*: whenever the original selects a value, the instantiated FLV
also selects one, but not conversely (with ``≤ 2n/3`` messages the original
never selects while Algorithm 2's line 3 may).  The ``otr-*`` claims of
``benchmarks/paper.py`` and ``tests/algorithms`` verify both the
equivalence of the decision condition and the strictness of the improvement.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.algorithms.registry import AlgorithmSpec, register
from repro.core.classification import AlgorithmClass
from repro.core.flv_class1 import FLVClass1
from repro.core.parameters import ConsensusParameters
from repro.core.selector import AllProcessesSelector
from repro.core.types import (
    FaultModel,
    Flag,
    ProcessId,
    RoundInfo,
    Value,
)
from repro.rounds.base import Inbound, Outbound, RoundProcess
from repro.utils.det import most_often_smallest


def one_third_rule_threshold(model: FaultModel) -> int:
    """``TD = ⌈(2n + 1)/3⌉`` (footnote 12 of the paper)."""
    return -((2 * model.n + 1) // -3)


@register("one-third-rule")
def build_one_third_rule(n: int, f: Optional[int] = None) -> AlgorithmSpec:
    """Build the OneThirdRule instantiation for ``n`` processes.

    ``f`` defaults to the maximum tolerated, ``⌈n/3⌉ − 1`` (``n > 3f``).
    """
    if f is None:
        f = (n - 1) // 3
    model = FaultModel(n=n, b=0, f=f)
    if n <= 3 * f:
        raise ValueError(f"OneThirdRule requires n > 3f, got n={n}, f={f}")
    td = one_third_rule_threshold(model)
    parameters = ConsensusParameters(
        model=model,
        threshold=td,
        flag=Flag.ANY,
        flv=FLVClass1(model, td),
        selector=AllProcessesSelector(model),
    )
    return AlgorithmSpec(
        name="OneThirdRule",
        parameters=parameters,
        algorithm_class=AlgorithmClass.CLASS_1,
        paper_section="5.1",
        notes="benign faults, TD=⌈(2n+1)/3⌉; instantiation slightly improves "
        "the original's selection rule",
    )


class OriginalOneThirdRuleProcess(RoundProcess):
    """Literal Algorithm 5: the original OneThirdRule.

    Every round: send ``vote`` to all; if more than ``2n/3`` messages
    arrive, set the vote to the smallest most-often-received value; if more
    than ``2n/3`` received values equal ``v``, decide ``v``.
    """

    def __init__(self, pid: ProcessId, initial_value: Value, model: FaultModel) -> None:
        self.pid = pid
        self.model = model
        self.vote = initial_value
        self.decided: Optional[Value] = None
        self.decision_round: Optional[int] = None

    @property
    def has_decided(self) -> bool:
        return self.decided is not None

    def send(self, info: RoundInfo) -> Outbound:
        return {dest: self.vote for dest in self.model.processes}

    def receive(self, info: RoundInfo, received: Inbound) -> None:
        values = [payload for payload in received.values()]
        n = self.model.n
        if 3 * len(values) > 2 * n:  # line 7: more than 2n/3 messages
            self.vote = most_often_smallest(values)  # line 8
            counts: Dict[Value, int] = {}
            for value in values:
                counts[value] = counts.get(value, 0) + 1
            for value, count in counts.items():
                if 3 * count > 2 * n:  # line 9: more than 2n/3 equal values
                    if self.decided is None:
                        self.decided = value
                        self.decision_round = info.number
                    break
