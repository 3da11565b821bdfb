"""Ben-Or [1] — randomized binary consensus (Section 6).

Two variants, both with ``FLAG = φ``, ``Selector = Π`` and Algorithm 9 as
FLV:

* benign: ``TD = f + 1`` and ``n > 2f``;
* Byzantine: ``TD = 3b + 1`` and ``n > 4b`` (a class-2 algorithm).

Instead of the partial-synchrony predicates, Ben-Or assumes reliable
channels: ``Prel`` holds in *every* round (each correct process receives at
least ``n − b − f`` messages).  Line 11's deterministic choice becomes a
fair coin; repeated phases make all correct processes select the same value
with probability 1.  The spec's config carries the
:data:`~repro.core.randomized.RANDOMIZED` marker, so every executor that
assembles it with the run's seed gets one independent coin per process; the
``Prel`` adversary is the ``async-prel`` comm kind::

    run_scenario(ScenarioSpec(comm=CommSpec(kind="async-prel")),
                 spec.parameters, rng=seed, config=spec.config)
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.registry import AlgorithmSpec, register
from repro.core.classification import AlgorithmClass
from repro.core.flv_variants import BenOrFLV
from repro.core.parameters import ConsensusParameters, GenericConsensusConfig
from repro.core.randomized import RANDOMIZED
from repro.core.selector import AllProcessesSelector
from repro.core.types import FaultModel, Flag


@register("ben-or")
def build_ben_or(
    n: int, *, b: int = 0, f: Optional[int] = None
) -> AlgorithmSpec:
    """Build Ben-Or for ``n`` processes.

    With ``b = 0`` (benign variant) ``f`` defaults to ``⌈n/2⌉ − 1`` and
    ``TD = f + 1``.  With ``b > 0`` (Byzantine variant) ``f`` is forced to 0
    and ``TD = 3b + 1`` (requires ``n > 4b``).
    """
    if b > 0:
        model = FaultModel(n=n, b=b, f=0)
        if n <= 4 * b:
            raise ValueError(f"Byzantine Ben-Or requires n > 4b, got n={n}, b={b}")
        td = 3 * b + 1
        variant = "Byzantine"
    else:
        if f is None:
            f = (n - 1) // 2
        model = FaultModel(n=n, b=0, f=f)
        if n <= 2 * f:
            raise ValueError(f"benign Ben-Or requires n > 2f, got n={n}, f={f}")
        td = f + 1
        variant = "benign"
    parameters = ConsensusParameters(
        model=model,
        threshold=td,
        flag=Flag.CURRENT_PHASE,
        flv=BenOrFLV(model, td),
        selector=AllProcessesSelector(model),
    )
    return AlgorithmSpec(
        name=f"Ben-Or ({variant})",
        parameters=parameters,
        algorithm_class=AlgorithmClass.CLASS_2,
        paper_section="6",
        notes=f"randomized binary consensus, {variant} variant, TD={td}; "
        "per-process coins seeded per run, Prel adversary = async-prel comm",
        config=GenericConsensusConfig(coin=RANDOMIZED),
    )
