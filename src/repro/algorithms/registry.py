"""Common structure for named algorithm instantiations."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.parameters import ConsensusParameters, GenericConsensusConfig
from repro.core.types import FaultModel, ProcessId, Value
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


#: FLV-class pseudo-algorithms accepted alongside builder names.
CLASS_ALGORITHMS = ("class-1", "class-2", "class-3")


def resolve_algorithm(
    name: str, model: FaultModel
) -> Tuple[ConsensusParameters, GenericConsensusConfig]:
    """Parameters + per-process config for an algorithm name at ``model``.

    ``class-N`` builds the canonical Table-1 class parameters; any other
    name goes through :data:`ALGORITHM_BUILDERS` (passing the model's
    ``b``/``f`` to builders that accept them).  Raises :class:`ValueError`
    (or :class:`ParameterError`) when the model violates the algorithm's
    resilience bound and :class:`KeyError` for an unknown name.  Cells go
    through :func:`repro.engine.cell.admit`, which memoizes this and adds
    the hosted-envelope check.
    """
    if name in CLASS_ALGORITHMS:
        algorithm_class = AlgorithmClass(int(name[-1]))
        return (
            build_class_parameters(algorithm_class, model),
            GenericConsensusConfig(),
        )
    builder = ALGORITHM_BUILDERS.get(name)
    if builder is None:
        raise KeyError(
            f"unknown algorithm {name!r}; known: "
            f"{sorted(ALGORITHM_BUILDERS) + list(CLASS_ALGORITHMS)}"
        )
    accepted = inspect.signature(builder).parameters
    kwargs: Dict[str, int] = {}
    if "b" in accepted:
        kwargs["b"] = model.b
    if "f" in accepted:
        kwargs["f"] = model.f
    spec = builder(model.n, **kwargs)
    return spec.parameters, spec.config
