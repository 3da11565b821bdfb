"""Common structure for named algorithm instantiations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from repro.core.classification import AlgorithmClass, classify
from repro.core.parameters import ConsensusParameters, GenericConsensusConfig
from repro.core.types import ProcessId, Value
from repro.engine.assembly import build_instance
from repro.engine.kernel import OBSERVE_FULL, run_instance
from repro.engine.outcome import Outcome
from repro.engine.scheduler import LockstepScheduler


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named instantiation of the generic algorithm.

    Bundles the parameters, the per-process config and paper metadata, and
    offers a :meth:`run` shortcut.  ``classify(spec.parameters)`` recovers
    the Table-1 class; ``spec.algorithm_class`` records the class the paper
    assigns (they agree — a test asserts it).
    """

    name: str
    parameters: ConsensusParameters
    algorithm_class: Optional[AlgorithmClass]
    paper_section: str
    notes: str = ""
    config: GenericConsensusConfig = field(default_factory=GenericConsensusConfig)

    def run(
        self,
        initial_values: Mapping[ProcessId, Value],
        *,
        config: Optional[GenericConsensusConfig] = None,
        byzantine=None,
        policy=None,
        crash_schedule=None,
        max_phases: int = 30,
        record_snapshots: bool = False,
    ) -> Outcome:
        """Run one instance through the unified execution kernel.

        Assembles the instance with
        :func:`~repro.engine.assembly.build_instance` and drives it under a
        :class:`~repro.engine.scheduler.LockstepScheduler` with full
        observation.  The spec's own config applies unless the caller
        overrides it.
        """
        instance = build_instance(
            self.parameters,
            initial_values,
            config=self.config if config is None else config,
            byzantine=byzantine,
        )
        return run_instance(
            instance,
            LockstepScheduler(policy),
            max_phases=max_phases,
            observe=OBSERVE_FULL,
            crash_schedule=crash_schedule,
            record_snapshots=record_snapshots,
        )

    @property
    def classified_as(self) -> Optional[AlgorithmClass]:
        """The class derived from the parameters (should match the paper's)."""
        return classify(self.parameters)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.parameters.describe()} "
            f"[class {self.algorithm_class.value if self.algorithm_class else '—'}, "
            f"{self.paper_section}]"
        )


#: Builders registered by the algorithm modules (filled in lazily to avoid
#: import cycles; see :func:`algorithm_builders`).
ALGORITHM_BUILDERS: Dict[str, Callable[..., AlgorithmSpec]] = {}


def register(name: str):
    """Decorator: register an algorithm builder under ``name``."""

    def decorate(builder: Callable[..., AlgorithmSpec]):
        ALGORITHM_BUILDERS[name] = builder
        return builder

    return decorate
