"""Declarative scenario descriptions: one dialect for every environment.

A :class:`ScenarioSpec` captures everything that distinguishes one execution
environment from another — Byzantine placement and strategy per slot, the
crash script, the communication schedule, and the timed-network conditions —
in plain data.  It is model-agnostic: the same spec compiles onto any
``(n, b, f)`` resilience point and onto **both** timing disciplines (the
lockstep oracle scheduler and the Δ-paced timed scheduler), via
:func:`repro.scenarios.compile.compile_scenario`.

Specs round-trip through plain mappings (:meth:`ScenarioSpec.to_mapping` /
:meth:`ScenarioSpec.from_mapping`), so campaigns can load them from JSON or
TOML files, and :meth:`describe_fault` / :meth:`describe_network` emit the
stable coordinate strings campaign seed derivation keys on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.types import FaultModel
from repro.eventsim.network import NetworkSpec

#: Communication kinds a scenario may select.
COMM_KINDS = ("reliable", "good-bad", "lossy", "async-prel", "silent")

#: Good/bad schedule shapes for ``kind="good-bad"``.
SCHEDULE_KINDS = ("always", "after", "windows", "alternating", "never")

#: Bad-period behaviours for ``kind="good-bad"``.
BAD_BEHAVIORS = ("drop", "partition", "silence")

#: The normal form ``(schedule, bad)`` of the kinds that are points of
#: ``good-bad``: always good · never good + drop · never good + silence.
#: ``async-prel`` is never good either, but its bad rounds pick per-receiver
#: subsets — not an edge rule (``per_edge`` is false).
_REGIMES = {
    "reliable": ("always", "drop"),
    "lossy": ("never", "drop"),
    "silent": ("never", "silence"),
    "async-prel": ("never", "prel"),
}


@dataclass(frozen=True)
class CommSpec:
    """The communication schedule of a scenario, as plain data.

    ``kind`` selects the delivery regime:

    * ``"reliable"`` — permanently good periods (``Pgood`` always, ``Pcons``
      in selection rounds);
    * ``"good-bad"`` — a good/bad period schedule (``schedule`` + its
      parameters) with a pluggable bad-period behaviour (``bad`` + its
      parameters).  ``schedule="after"`` with ``good_from=r`` is the
      GST-style shape: bad prefix, then permanently good;
    * ``"lossy"`` — unconstrained i.i.d. loss with ``drop_prob`` (no
      predicate holds; safety must survive);
    * ``"async-prel"`` — the randomized-algorithm adversary (``Prel`` only;
      lockstep engine only);
    * ``"silent"`` — nothing is ever delivered to honest processes.

    ``groups`` fixes the partition sides explicitly; ``None`` splits the
    process set into halves at compile time.

    Readers below the spec (compilation, planner, array tier, fuzz
    classifier) ask the normal form — :meth:`regime` and the facts derived
    from it — instead of switching on ``kind``.  ``describe()``, the mapping
    form, equality and hash keep the spelling the user wrote: they key
    seeds, rows and memos.
    """

    kind: str = "reliable"
    schedule: str = "after"
    good_from: int = 1
    windows: Tuple[Tuple[int, int], ...] = ()
    good_len: int = 1
    bad_len: int = 0
    bad: str = "drop"
    drop_prob: float = 0.5
    groups: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in COMM_KINDS:
            raise ValueError(
                f"unknown communication kind {self.kind!r}; known: {COMM_KINDS}"
            )
        if self.schedule not in SCHEDULE_KINDS:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; known: {SCHEDULE_KINDS}"
            )
        if self.bad not in BAD_BEHAVIORS:
            raise ValueError(
                f"unknown bad behaviour {self.bad!r}; known: {BAD_BEHAVIORS}"
            )
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        if self.good_from < 1:
            raise ValueError(f"good_from must be ≥ 1, got {self.good_from}")
        if self.good_len < 1 or self.bad_len < 0:
            raise ValueError(
                "alternating needs good_len ≥ 1 and bad_len ≥ 0, got "
                f"good_len={self.good_len}, bad_len={self.bad_len}"
            )
        if isinstance(self.windows, str) or not all(
            isinstance(w, (list, tuple))
            and len(w) == 2
            and all(type(x) is int for x in w)
            and 1 <= w[0] <= w[1]
            for w in self.windows
        ):
            raise ValueError(
                "windows must be [start, end] integer pairs with "
                f"1 ≤ start ≤ end, got {self.windows!r}"
            )
        # Mapping loaders hand in lists (also empty or nested in a tuple);
        # freeze them all the way down so specs stay hashable — an unhashable
        # spec would poison the compilation memo for its tuple-built equal.
        object.__setattr__(self, "windows", tuple(tuple(w) for w in self.windows))
        if self.groups is not None:
            object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))

    # ---------------------------------------------------------- normal form

    @property
    def per_edge(self) -> bool:
        """True when a round's delivery is one boolean per edge — every
        kind but ``async-prel``, so everything with an edge rule and a
        delivery-mask form."""
        return self.kind != "async-prel"

    def regime(self) -> Tuple[str, str]:
        """The normal form ``(schedule, bad)``: which rounds are good and
        what the bad ones do."""
        if self.kind == "good-bad":
            return self.schedule, self.bad
        return _REGIMES[self.kind]

    def never_bad(self) -> bool:
        """True when the schedule provably has no bad round ≥ 1."""
        schedule, _bad = self.regime()
        if schedule == "after":
            # Rounds are 1-based: good from ``good_from`` onwards makes
            # round 1 good whenever ``good_from <= 1``.
            return self.good_from <= 1
        if schedule == "alternating":
            return self.bad_len == 0
        return schedule == "always"

    def draws_coins(self) -> bool:
        """True when some round flips one seeded coin per honest-bound edge
        (the only per-run randomness a per-edge kind consumes)."""
        return self.regime()[1] == "drop" and not self.never_bad()

    def eventually_good(self) -> bool:
        """True when the schedule's shape ends in a permanently good
        period (a stall past it is a liveness finding, not bad luck)."""
        return self.regime()[0] in ("always", "after")

    def describe(self) -> str:
        """A compact, alias-free coordinate string (empty for reliable)."""
        if self.kind == "reliable":
            return ""
        if self.kind == "lossy":
            return f"lossy:{self.drop_prob:g}"
        if self.kind == "async-prel":
            return "prel"
        if self.kind == "silent":
            return "silent-net"
        # good-bad: schedule shape, then the bad behaviour.
        if self.schedule == "after":
            shape = f"gst@{self.good_from}"
        elif self.schedule == "windows":
            shape = "win" + ",".join(f"{a}-{b}" for a, b in self.windows)
        elif self.schedule == "alternating":
            shape = f"alt{self.good_len}g{self.bad_len}b"
        else:
            shape = self.schedule
        if self.bad == "drop":
            behaviour = f"drop{self.drop_prob:g}"
        elif self.bad == "partition":
            sides = (
                "halves"
                if self.groups is None
                else "|".join(",".join(map(str, g)) for g in self.groups)
            )
            behaviour = f"part[{sides}]"
        else:
            behaviour = "silence"
        return f"{shape}:{behaviour}"


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative execution environment.

    * ``byzantine`` — strategy names assigned per slot, starting at process
      ``n − 1`` and walking down (the placement convention every sweep
      already used); the list is cycled when there are more slots than
      names.  ``byzantine_count`` bounds the slots: ``-1`` fills all ``b``.
    * ``crashes`` / ``crash_round`` / ``clean`` — the crash script:
      ``crashes`` processes (``-1`` = all ``f``), ids ``0..k-1``, crash in
      ``crash_round``; ``clean`` selects crash-after-send semantics.
    * ``comm`` — the communication schedule (see :class:`CommSpec`).
    * ``timing`` — timed-engine network conditions (see
      :class:`~repro.eventsim.network.NetworkSpec`).
    * ``max_phases`` — a scenario-suggested horizon (e.g. "GST at round 10
      needs ≥ 18 phases"); ``None`` defers to the caller.
    """

    name: str = "custom"
    byzantine: Tuple[str, ...] = ()
    byzantine_count: int = -1
    crashes: int = 0
    crash_round: int = 1
    clean: bool = True
    comm: CommSpec = field(default_factory=CommSpec)
    timing: NetworkSpec = field(default_factory=NetworkSpec)
    max_phases: Optional[int] = None

    def __post_init__(self) -> None:
        if self.crashes < -1:
            raise ValueError(f"crashes must be ≥ -1, got {self.crashes}")
        if self.crash_round < 1:
            raise ValueError(f"crash_round must be ≥ 1, got {self.crash_round}")
        if self.byzantine_count < -1:
            raise ValueError(
                f"byzantine_count must be ≥ -1, got {self.byzantine_count}"
            )
        if self.byzantine_count > 0 and not self.byzantine:
            raise ValueError("byzantine_count > 0 needs at least one strategy")
        # A bare string would otherwise freeze into one strategy per letter.
        if not isinstance(self.byzantine, (list, tuple)) or not all(
            isinstance(name, str) for name in self.byzantine
        ):
            raise ValueError(
                "byzantine must be a list of strategy names "
                f'(["equivocator"], not "equivocator"), got {self.byzantine!r}'
            )
        if not isinstance(self.byzantine, tuple):
            object.__setattr__(self, "byzantine", tuple(self.byzantine))

    # ------------------------------------------------------------ resolution

    def byzantine_map(self, model: FaultModel) -> Dict[int, str]:
        """slot → strategy-name placement under ``model`` (pure data).

        Admissibility (``b > 0``, count ≤ ``b``) is checked by the compiler,
        not here.
        """
        if not self.byzantine:
            return {}
        count = model.b if self.byzantine_count == -1 else self.byzantine_count
        return {
            model.n - 1 - i: self.byzantine[i % len(self.byzantine)]
            for i in range(count)
        }

    def crash_count(self, model: FaultModel) -> int:
        """The number of processes this scenario crashes under ``model``."""
        return model.f if self.crashes == -1 else self.crashes

    # ------------------------------------------------------------- describe

    def describe_fault(self) -> str:
        """The fault/communication coordinate string (a seed-derivation
        input: changing it moves every campaign seed)."""
        parts = []
        if self.byzantine:
            strategies = ",".join(self.byzantine)
            suffix = (
                "" if self.byzantine_count == -1 else f"×{self.byzantine_count}"
            )
            parts.append(f"byz:{strategies}{suffix}")
        if self.crashes:
            count = "f" if self.crashes == -1 else str(self.crashes)
            mode = "" if self.clean else "!"
            parts.append(f"crash{mode}:{count}@{self.crash_round}")
        comm = self.comm.describe()
        if comm:
            parts.append(comm)
        if self.max_phases is not None:
            parts.append(f"ph:{self.max_phases}")
        return "+".join(parts) or "fault-free"

    def describe_network(self) -> str:
        """The timed-network coordinate string."""
        return self.timing.describe()

    def describe(self) -> str:
        return f"{self.describe_fault()} / {self.describe_network()}"

    # -------------------------------------------------------- (de)serialize

    def to_mapping(self) -> Dict[str, object]:
        """A JSON/TOML-friendly mapping (inverse of :meth:`from_mapping`)."""
        data: Dict[str, object] = {
            "name": self.name,
            "byzantine": list(self.byzantine),
            "byzantine_count": self.byzantine_count,
            "crashes": self.crashes,
            "crash_round": self.crash_round,
            "clean": self.clean,
            "comm": asdict(self.comm),
            "timing": asdict(self.timing),
        }
        if self.comm.windows:
            data["comm"]["windows"] = [list(w) for w in self.comm.windows]
        if self.comm.groups is not None:
            data["comm"]["groups"] = [list(g) for g in self.comm.groups]
        if self.max_phases is not None:
            data["max_phases"] = self.max_phases
        return data

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "ScenarioSpec":
        data = dict(mapping)
        unknown = set(data) - {
            "name", "byzantine", "byzantine_count", "crashes", "crash_round",
            "clean", "comm", "timing", "max_phases",
        }
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        kwargs: Dict[str, object] = {}
        for key in ("name", "byzantine", "byzantine_count", "crashes",
                    "crash_round", "clean", "max_phases"):
            if key in data:
                kwargs[key] = data[key]
        if "comm" in data:
            kwargs["comm"] = CommSpec(**dict(data["comm"]))
        if "timing" in data:
            kwargs["timing"] = NetworkSpec(**dict(data["timing"]))
        return cls(**kwargs)


def split_values(
    model: FaultModel, byzantine: Mapping[int, object]
) -> Dict[int, str]:
    """The standard honest proposals: ``v0`` / ``v1`` by pid parity."""
    return {
        pid: f"v{pid % 2}" for pid in model.processes if pid not in byzantine
    }
