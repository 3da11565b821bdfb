"""Declarative scenario sweeps: a campaign is a cross-product grid.

A :class:`CampaignSpec` names the axes of an experiment — algorithms (builder
names or ``class-N`` FLV classes), ``(n, b, f)`` resilience points,
*scenarios* (declarative :class:`~repro.scenarios.spec.ScenarioSpec`
environments or registered preset names), engines, repetitions — and
expands them into fully-resolved :class:`RunSpec` objects, one per run:
lazily via :meth:`CampaignSpec.iter_runs` (what the streaming runner
consumes) or as a list via :meth:`CampaignSpec.expand`.  Each run's seed is
derived deterministically from the campaign seed
and the run's *coordinates* (not its position in the expansion), so results
are reproducible regardless of worker count or axis ordering.

An empty ``scenarios`` axis means the registered ``fault-free`` scenario.

Specs round-trip through plain mappings (:meth:`CampaignSpec.to_mapping` /
:meth:`CampaignSpec.from_mapping`) and load from ``.json`` or ``.toml``
files via :func:`load_spec`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Tuple, Union

from repro.algorithms.registry import resolve_algorithm
from repro.engine.cell import RunSpec, cell_key_prefix, derive_seed
from repro.eventsim.network import NetworkSpec
from repro.scenarios.compile import ENGINES
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec

# ``RunSpec`` / ``derive_seed`` live in :mod:`repro.engine.cell`, below every
# executor; they, ``resolve_algorithm`` and ``NetworkSpec`` stay public here.
__all__ = [
    "ENGINES",
    "CampaignSpec",
    "NetworkSpec",
    "RunSpec",
    "ScenarioRef",
    "derive_seed",
    "load_spec",
    "resolve_algorithm",
]

#: A scenarios-axis entry: a registered preset name or an inline spec.
ScenarioRef = Union[str, ScenarioSpec]

#: Spec-file keys of the retired fault-script × network axes, each with the
#: ``scenarios`` spelling that replaces it.
_REMOVED_AXES = {
    "faults": (
        'write scenarios = [{byzantine = ["equivocator"]}] — one entry per '
        "fault script; crashes / crash_round / clean keep their names"
    ),
    "networks": (
        "write scenarios = [{timing = {gst = 10.0}}] — one entry per "
        "fault script × network, the network under the entry's timing key"
    ),
}


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: the cross product of every axis below.

    ``scenarios`` is the environment axis (preset names resolve through
    :data:`~repro.scenarios.registry.SCENARIO_REGISTRY` at construction);
    left empty it is the ``fault-free`` scenario alone.
    """

    name: str
    algorithms: Tuple[str, ...]
    models: Tuple[Tuple[int, int, int], ...]
    engines: Tuple[str, ...] = ("lockstep",)
    scenarios: Tuple[ScenarioRef, ...] = ()
    repetitions: int = 1
    seed: int = 0
    max_phases: int = 15

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        for axis in ("algorithms", "models", "engines"):
            if not getattr(self, axis):
                raise ValueError(f"axis {axis!r} must be non-empty")
        # Resolve preset names once; expansion then works on pure specs.
        object.__setattr__(
            self,
            "scenarios",
            tuple(
                get_scenario(ref) if isinstance(ref, str) else ref
                for ref in self.scenarios or ("fault-free",)
            ),
        )
        for engine in self.engines:
            if engine not in ENGINES:
                raise ValueError(
                    f"unknown engine {engine!r}; known: {ENGINES}"
                )
        if self.repetitions < 1:
            raise ValueError("repetitions must be ≥ 1")
        if self.max_phases < 1:
            raise ValueError("max_phases must be ≥ 1")

    @property
    def total_runs(self) -> int:
        return (
            len(self.algorithms)
            * len(self.models)
            * len(self.engines)
            * len(self.scenarios)
            * self.repetitions
        )

    def iter_runs(self) -> Iterator[RunSpec]:
        """Lazily yield the grid in deterministic axis order.

        Run ids follow the axis order and seeds derive from coordinates,
        so the stream is identical to ``expand()`` — but nothing beyond the
        run being yielded is ever materialized, which is what lets the
        streaming runner hold memory at O(in-flight window) on grids of
        millions of cells.
        """
        cells = itertools.product(
            self.algorithms, self.models, self.engines, self.scenarios
        )
        run_id = 0
        for algorithm, (n, b, f), engine, scenario in cells:
            # The describe strings are rendered once per cell, not once
            # per repetition, and each run is built with its seed.
            prefix = cell_key_prefix(algorithm, n, b, f, engine, scenario)
            for rep in range(self.repetitions):
                yield RunSpec(
                    campaign=self.name,
                    run_id=run_id,
                    algorithm=algorithm,
                    n=n,
                    b=b,
                    f=f,
                    engine=engine,
                    scenario=scenario,
                    rep=rep,
                    seed=derive_seed(self.seed, f"{prefix}rep{rep}"),
                    max_phases=self.max_phases,
                )
                run_id += 1

    def expand(self) -> List[RunSpec]:
        """The full grid as a list (see :meth:`iter_runs` for the lazy form)."""
        return list(self.iter_runs())

    def to_mapping(self) -> Dict[str, object]:
        """A JSON/TOML-friendly mapping (inverse of :meth:`from_mapping`)."""
        return {
            "name": self.name,
            "algorithms": list(self.algorithms),
            "models": [list(model) for model in self.models],
            "engines": list(self.engines),
            "repetitions": self.repetitions,
            "seed": self.seed,
            "max_phases": self.max_phases,
            "scenarios": [spec.to_mapping() for spec in self.scenarios],
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "CampaignSpec":
        data = dict(mapping)
        for axis, replacement in _REMOVED_AXES.items():
            if axis in data:
                raise ValueError(f"{axis!r} was removed: {replacement}")
        unknown = set(data) - {
            "name", "algorithms", "models", "engines", "scenarios",
            "repetitions", "seed", "max_phases",
        }
        if unknown:
            raise ValueError(f"unknown campaign keys: {sorted(unknown)}")
        kwargs: Dict[str, object] = {
            "name": data.get("name", "campaign"),
            "algorithms": tuple(data.get("algorithms", ())),
            "models": tuple(
                tuple(int(x) for x in model) for model in data.get("models", ())
            ),
        }
        if "engines" in data:
            kwargs["engines"] = tuple(data["engines"])
        if "scenarios" in data:
            kwargs["scenarios"] = tuple(
                ref if isinstance(ref, str) else ScenarioSpec.from_mapping(ref)
                for ref in data["scenarios"]
            )
        for scalar in ("repetitions", "seed", "max_phases"):
            if scalar in data:
                kwargs[scalar] = int(data[scalar])
        for model in kwargs["models"]:
            if len(model) != 3:
                raise ValueError(f"models entries must be (n, b, f), got {model}")
        return cls(**kwargs)


def load_spec(path: object) -> CampaignSpec:
    """Load a campaign spec from a ``.json`` or ``.toml`` file."""
    spec_path = Path(path)
    text = spec_path.read_text(encoding="utf-8")
    if spec_path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python 3.10 fallback
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ImportError as exc:
                raise ValueError(
                    "TOML specs need Python ≥ 3.11 (tomllib) or tomli; "
                    "use a .json spec instead"
                ) from exc
        data = tomllib.loads(text)
    elif spec_path.suffix == ".json":
        data = json.loads(text)
    else:
        raise ValueError(
            f"unsupported spec extension {spec_path.suffix!r} (want .json/.toml)"
        )
    return CampaignSpec.from_mapping(data)
