"""The public home of named Byzantine strategies.

:data:`STRATEGY_REGISTRY` maps the strategy names accepted throughout the
library (``build_instance(byzantine=...)``, scenario specs, the CLI) to
their factories, and :func:`build_byzantine` resolves one *spec* — a name,
a ready instance, or a factory — into a live
:class:`~repro.faults.byzantine.ByzantineStrategy`, so every execution path
assembles adversaries through one public API.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.core.parameters import ConsensusParameters
from repro.core.types import ProcessId
from repro.faults.byzantine import (
    AdaptiveLiar,
    ByzantineStrategy,
    Equivocator,
    FakeHistoryLiar,
    HighTimestampLiar,
    RandomNoise,
    SilentByzantine,
    VoteFlipper,
)

#: Named Byzantine strategies accepted wherever a ``ByzantineSpec`` is.
STRATEGY_REGISTRY: Dict[str, Callable[..., ByzantineStrategy]] = {
    "silent": SilentByzantine,
    "noise": RandomNoise,
    "equivocator": Equivocator,
    "vote-flipper": VoteFlipper,
    "high-ts-liar": HighTimestampLiar,
    "fake-history-liar": FakeHistoryLiar,
    "adaptive-liar": AdaptiveLiar,
}

#: A Byzantine slot is a strategy name, an instance, or a factory.
ByzantineSpec = Union[
    str, ByzantineStrategy, Callable[[ProcessId, ConsensusParameters], ByzantineStrategy]
]


def build_byzantine(
    pid: ProcessId, spec: ByzantineSpec, parameters: ConsensusParameters
) -> ByzantineStrategy:
    """Resolve a Byzantine spec into a strategy instance for process ``pid``."""
    if isinstance(spec, ByzantineStrategy):
        return spec
    if isinstance(spec, str):
        try:
            factory = STRATEGY_REGISTRY[spec]
        except KeyError:
            raise ValueError(
                f"unknown Byzantine strategy {spec!r}; "
                f"known: {sorted(STRATEGY_REGISTRY)}"
            ) from None
        return factory(pid, parameters)
    return spec(pid, parameters)
