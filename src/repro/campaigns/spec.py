"""Declarative scenario sweeps: a campaign is a cross-product grid.

A :class:`CampaignSpec` names the axes of an experiment — algorithms (builder
names or ``class-N`` FLV classes), ``(n, b, f)`` resilience points,
*scenarios* (declarative :class:`~repro.scenarios.spec.ScenarioSpec`
environments or registered preset names), engines, repetitions — and
expands them cell by cell (:meth:`CampaignSpec.iter_cells`, what the
streaming runner cuts into chunks: a :class:`~repro.engine.cell.CellSlice`
is a lazy sequence of its runs) into fully-resolved :class:`RunSpec`
objects, one per run: lazily via :meth:`CampaignSpec.iter_runs` or as a
list via :meth:`CampaignSpec.expand`.  Each run's seed is
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
from typing import Dict, Iterator, Mapping, Tuple, Union

from repro.algorithms.registry import resolve_algorithm
from repro.engine.cell import CellSlice, RunSpec, cell_key_prefix, derive_seed
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

    def iter_cells(self) -> Iterator[CellSlice]:
        """Lazily yield the grid's cells, whole, in deterministic axis order.

        Repetitions are the innermost axis, so cell ``k`` owns run ids
        ``k × repetitions`` onward; a slice holds the cell's first run and
        a ``range``, never its runs.
        """
        cells = itertools.product(
            self.algorithms, self.models, self.engines, self.scenarios
        )
        reps = range(self.repetitions)
        for index, (algorithm, (n, b, f), engine, scenario) in enumerate(cells):
            prefix = cell_key_prefix(algorithm, n, b, f, engine, scenario)
            first = RunSpec(
                self.name, index * len(reps), algorithm, n, b, f, engine,
                scenario, 0, derive_seed(self.seed, f"{prefix}rep0"),
                self.max_phases,
            )
            yield CellSlice(first, self.seed, reps)

    def iter_runs(self) -> Iterator[RunSpec]:
        """Lazily yield the grid, run by run: the flatten of :meth:`iter_cells`.

        Run ids follow the axis order and seeds derive from coordinates,
        so the stream is identical to ``expand()`` — but nothing beyond the
        run being yielded is ever materialized.
        """
        for cell in self.iter_cells():
            yield from cell

    def run_at(self, run_id: int) -> RunSpec:
        """The run with this id, addressed without drawing the grid's runs."""
        cell, rep = divmod(run_id, self.repetitions)
        return next(itertools.islice(self.iter_cells(), cell, None))[rep]

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
        def expect(ok: bool, key: str, want: str, got: object) -> None:
            if not ok:
                raise ValueError(f"{key!r} {want}, got {got!r}")

        kwargs: Dict[str, object] = {"name": data.get("name", "campaign")}
        # A bare string would iterate as one-letter entries: shape first.
        for axis in ("algorithms", "models", "engines", "scenarios"):
            if axis in data or axis in ("algorithms", "models"):
                value = data.get(axis, ())
                expect(isinstance(value, (list, tuple)), axis, "must be a list", value)
                kwargs[axis] = tuple(value)
        for axis in ("algorithms", "engines"):
            for name in kwargs.get(axis, ()):
                expect(isinstance(name, str), axis, "entries must be names", name)
        for model in kwargs["models"]:
            expect(
                isinstance(model, (list, tuple))
                and [type(x) for x in model] == [int, int, int],
                "models", "entries must be (n, b, f) integers", model,
            )
        kwargs["models"] = tuple(map(tuple, kwargs["models"]))
        if "scenarios" in kwargs:
            kwargs["scenarios"] = tuple(
                ref if isinstance(ref, str) else ScenarioSpec.from_mapping(ref)
                for ref in kwargs["scenarios"]
            )
        for scalar in ("repetitions", "seed", "max_phases"):
            if scalar in data:
                value = kwargs[scalar] = data[scalar]
                expect(type(value) is int, scalar, "must be an integer", value)
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
