"""The fuzzer's search space: candidates, seeded generation, mutation.

A :class:`FuzzCandidate` is one point of the adversarial search space — an
algorithm/model/engine coordinate plus a full declarative
:class:`~repro.scenarios.spec.ScenarioSpec` (Byzantine placement and
strategies, crash script, communication schedule, timed-network conditions)
and a phase budget.  :class:`FuzzSpace` bounds what the search may draw
from; :func:`generate` samples a fresh candidate and :func:`mutate` applies
structured mutations to a known-interesting one (the corpus feeds findings
back in).

Everything here is a pure function of its :class:`random.Random` argument:
the fuzz loop derives one RNG per candidate index from the campaign-style
seed derivation, which is what makes a whole fuzz run — including every
mutation decision — deterministic and resumable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from random import Random
from typing import Dict, Mapping, Optional, Tuple

from repro.algorithms.registry import ALGORITHM_BUILDERS, CLASS_ALGORITHMS
from repro.core.types import FaultModel
from repro.engine.cell import cell_key_prefix
from repro.engine.kernel import DEFAULT_PHASES
from repro.engine.scheduler import ENGINES
from repro.eventsim.network import NetworkSpec
from repro.faults.registry import STRATEGY_REGISTRY
from repro.scenarios.spec import CommSpec, ScenarioSpec
from repro.utils.digests import blake2b

#: Builder / class names the default space searches over.  ``ben-or`` is
#: excluded by default: its termination is probabilistic, so it needs the
#: randomized-aware classification gate (include it explicitly to fuzz it).
DEFAULT_ALGORITHMS = (
    "one-third-rule",
    "pbft",
    "paxos",
    "chandra-toueg",
    "mqb",
    "fab-paxos",
    "class-1",
    "class-2",
    "class-3",
)

#: Engines the default space searches over: the two with an oracle
#: ``Pcons``.  The implemented-``Pcons`` engines of
#: :data:`~repro.engine.scheduler.ENGINES` are named explicitly.
DEFAULT_ENGINES = ("lockstep", "timed")

#: Byzantine strategies the generator assigns to slots (fixed order — the
#: registry is consulted for validity, not for ordering, so the candidate
#: stream never depends on registration order).
DEFAULT_STRATEGIES = (
    "silent",
    "noise",
    "equivocator",
    "vote-flipper",
    "high-ts-liar",
    "fake-history-liar",
    "adaptive-liar",
)

#: The range ``n`` is drawn from when a space pins no ``models`` pool.
N_RANGE = (3, 9)

#: Drop probabilities the generator draws from (a small palette keeps the
#: space coarse enough that duplicates — and therefore corpus dedup — occur).
_DROP_PROBS = (0.3, 0.5, 0.8, 1.0)


@dataclass(frozen=True)
class FuzzCandidate:
    """One point of the search space: a fully-specified execution cell."""

    algorithm: str
    n: int
    b: int
    f: int
    engine: str
    scenario: ScenarioSpec
    max_phases: int = DEFAULT_PHASES

    def key(self) -> str:
        """Stable coordinate string — the dedup key and seed-derivation input.

        A :meth:`~repro.engine.cell.RunSpec.key` with the phase budget in
        the repetition's place, so per-candidate seeds are content-derived:
        a shrunk or replayed candidate reproduces with its own seed
        regardless of where in the search it was discovered.
        """
        return cell_key_prefix(
            self.algorithm, self.n, self.b, self.f, self.engine, self.scenario
        ) + f"ph{self.max_phases}"

    def to_mapping(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "b": self.b,
            "f": self.f,
            "engine": self.engine,
            "scenario": self.scenario.to_mapping(),
            "max_phases": self.max_phases,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "FuzzCandidate":
        data = dict(mapping)
        unknown = set(data) - {
            "algorithm", "n", "b", "f", "engine", "scenario", "max_phases",
        }
        if unknown:
            raise ValueError(f"unknown candidate keys: {sorted(unknown)}")
        return cls(
            algorithm=str(data["algorithm"]),
            n=int(data["n"]),
            b=int(data["b"]),
            f=int(data["f"]),
            engine=str(data["engine"]),
            scenario=ScenarioSpec.from_mapping(data["scenario"]),
            max_phases=int(data.get("max_phases", DEFAULT_PHASES)),
        )


@dataclass(frozen=True)
class FuzzSpace:
    """Bounds on what :func:`generate` / :func:`mutate` may produce.

    ``models`` pins an explicit ``(n, b, f)`` pool (what the CI smoke cells
    use); ``None`` samples ``n`` from :data:`N_RANGE`.  The space fingerprint
    is recorded in the checkpoint header so a resume under a different
    space is refused rather than silently diverging.
    """

    algorithms: Tuple[str, ...] = DEFAULT_ALGORITHMS
    engines: Tuple[str, ...] = DEFAULT_ENGINES
    models: Optional[Tuple[Tuple[int, int, int], ...]] = None
    strategies: Tuple[str, ...] = DEFAULT_STRATEGIES

    def __post_init__(self) -> None:
        for axis in ("algorithms", "engines", "strategies"):
            if not getattr(self, axis):
                raise ValueError(f"axis {axis!r} must be non-empty")
        for noun, names, known in (
            ("engine", self.engines, ENGINES),
            ("algorithm", self.algorithms, (*ALGORITHM_BUILDERS, *CLASS_ALGORITHMS)),
            ("strategy", self.strategies, STRATEGY_REGISTRY),
        ):
            for name in names:
                if name not in known:
                    raise ValueError(f"unknown {noun} {name!r}; known: {sorted(known)}")
        if self.models is not None:
            if not self.models:
                raise ValueError("explicit models pool must be non-empty")
            object.__setattr__(
                self, "models", tuple(tuple(m) for m in self.models)
            )
            for model in self.models:
                if len(model) != 3:
                    raise ValueError(
                        f"models entries must be (n, b, f), got {model}"
                    )
                FaultModel(*model)  # raise now, not mid-search
        # A candidate draws each axis uniformly, so a repeated entry would
        # silently double its weight (and move the space's fingerprint).
        for axis in ("algorithms", "engines", "models", "strategies"):
            entries = getattr(self, axis) or ()
            for index, entry in enumerate(entries):
                if entry in entries[:index]:
                    raise ValueError(f"axis {axis!r} repeats {entry!r}")

    def fingerprint(self) -> str:
        """A stable digest of the space (corpus-state compatibility check)."""
        payload = json.dumps(
            {
                "algorithms": list(self.algorithms),
                "engines": list(self.engines),
                "models": (
                    None
                    if self.models is None
                    else [list(m) for m in self.models]
                ),
                # A fixed range, hashed so that the fingerprint (and every
                # checkpoint it was recorded in) keeps its value.
                "n_range": list(N_RANGE),
                "strategies": list(self.strategies),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


# --------------------------------------------------------------- generation


def _pick_model(space: FuzzSpace, rng: Random) -> Tuple[int, int, int]:
    if space.models is not None:
        return space.models[rng.randrange(len(space.models))]
    n = rng.randint(*N_RANGE)  # n ≥ 3 leaves room for b ≥ 1 and then f ≥ 1
    b = 0 if rng.random() < 0.35 else rng.randint(1, (n - 1) // 2)
    f = 0 if rng.random() < 0.4 else rng.randint(1, n - 1 - b)
    return n, b, f


def _gen_windows(rng: Random) -> Tuple[Tuple[int, int], ...]:
    start = rng.randint(1, 4)
    end = start + rng.randint(0, 4)
    windows = [(start, end)]
    if rng.random() < 0.4:
        start2 = end + rng.randint(2, 5)
        windows.append((start2, start2 + rng.randint(0, 3)))
    return tuple(windows)


def _gen_groups(
    rng: Random, n: int
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """An explicit random 2-way partition split, or ``None`` for halves."""
    if n < 2 or rng.random() < 0.5:
        return None
    pids = list(range(n))
    rng.shuffle(pids)
    cut = rng.randint(1, n - 1)
    return (tuple(sorted(pids[:cut])), tuple(sorted(pids[cut:])))


def _gen_comm(rng: Random, n: int, engine: str) -> CommSpec:
    roll = rng.random()
    if roll < 0.30:
        return CommSpec()
    if roll < 0.85 or engine != "lockstep":
        if roll >= 0.65:
            return CommSpec(kind="lossy", drop_prob=rng.choice(_DROP_PROBS))
        # good-bad: a schedule shape plus a bad-period behaviour.
        shape = rng.random()
        schedule, good_from, windows = "after", rng.randint(1, 10), ()
        good_len = bad_len = 1
        if shape >= 0.45 and shape < 0.65:
            schedule = "alternating"
            good_len, bad_len = rng.randint(1, 3), rng.randint(1, 3)
        elif shape >= 0.65 and shape < 0.80:
            schedule, windows = "windows", _gen_windows(rng)
        elif shape >= 0.80 and shape < 0.90:
            schedule = "always"
        elif shape >= 0.90:
            schedule = "never"
        bad = ("drop", "partition", "silence")[rng.randrange(3)]
        return CommSpec(
            kind="good-bad",
            schedule=schedule,
            good_from=good_from,
            windows=windows,
            good_len=good_len,
            bad_len=bad_len,
            bad=bad,
            drop_prob=rng.choice(_DROP_PROBS),
            groups=_gen_groups(rng, n) if bad == "partition" else None,
        )
    if roll < 0.95:
        return CommSpec(kind="async-prel")
    return CommSpec(kind="silent")


def _gen_timing(rng: Random, engine: str) -> NetworkSpec:
    # Lockstep ignores timing; keeping it at the default avoids spurious
    # candidate-key diversity (and duplicate near-identical cells).
    if engine != "timed":
        return NetworkSpec()
    kind = "fixed" if rng.random() < 0.3 else "uniform"
    low = round(rng.uniform(0.2, 1.0), 2)
    high = low if kind == "fixed" else round(low + rng.uniform(0.0, 1.5), 2)
    delta = rng.choice((1.0, 2.0))
    return NetworkSpec(
        kind=kind,
        low=low,
        high=high,
        gst=rng.choice((0.0, 0.0, 2.0, 5.0, 10.0)),
        delta=delta,
        pre_gst_delay_prob=rng.choice((0.25, 0.5, 0.75)),
        chaos_factor=rng.choice((5.0, 20.0, 50.0)),
        # Keeping Δ ≥ δ means post-GST rounds deliver within the round:
        # liveness findings under this timing are real, not budget artifacts.
        round_duration=delta + rng.choice((0.5, 1.0)),
    )


def _gen_byzantine(
    rng: Random, b: int, strategies: Tuple[str, ...]
) -> Tuple[Tuple[str, ...], int]:
    if b == 0 or rng.random() < 0.15:
        return (), -1
    count = b if rng.random() < 0.5 else rng.randint(1, b)
    names = tuple(
        strategies[rng.randrange(len(strategies))]
        for _ in range(rng.randint(1, min(3, count)))
    )
    return names, (-1 if count == b else count)


def _gen_crashes(rng: Random, f: int) -> Tuple[int, int, bool]:
    if f == 0 or rng.random() < 0.5:
        return 0, 1, True
    crashes = -1 if rng.random() < 0.3 else rng.randint(1, f)
    return crashes, rng.randint(1, 6), rng.random() < 0.7


def suggest_phases(comm: CommSpec, timing: NetworkSpec, engine: str) -> int:
    """A phase budget that generously covers the scenario's bad prefix.

    The liveness classifier only trusts a stalled run as a *finding* when
    the budget is at least this horizon — otherwise a "stall" may just be a
    too-short run (a GST at round 10 under a 4-phase budget terminates
    nowhere, violation or not).
    """
    horizon = 12
    if comm.kind == "good-bad":
        if comm.schedule == "after":
            horizon += comm.good_from
        elif comm.schedule == "windows" and comm.windows:
            horizon += max(end for _, end in comm.windows)
        elif comm.schedule == "alternating":
            horizon += comm.good_len + comm.bad_len
    elif comm.kind == "lossy":
        horizon += 6
    if engine == "timed" and timing.gst > 0:
        horizon += int(timing.gst / timing.round_duration) + 2
    return min(horizon, 40)


def generate(space: FuzzSpace, rng: Random) -> FuzzCandidate:
    """Sample one fresh candidate (a pure function of ``rng``)."""
    n, b, f = _pick_model(space, rng)
    algorithm = space.algorithms[rng.randrange(len(space.algorithms))]
    engine = space.engines[rng.randrange(len(space.engines))]
    comm = _gen_comm(rng, n, engine)
    timing = _gen_timing(rng, engine)
    byzantine, byz_count = _gen_byzantine(rng, b, space.strategies)
    crashes, crash_round, clean = _gen_crashes(rng, f)
    scenario = ScenarioSpec(
        name="fuzz",
        byzantine=byzantine,
        byzantine_count=byz_count,
        crashes=crashes,
        crash_round=crash_round,
        clean=clean,
        comm=comm,
        timing=timing,
    )
    return FuzzCandidate(
        algorithm=algorithm,
        n=n,
        b=b,
        f=f,
        engine=engine,
        scenario=scenario,
        max_phases=suggest_phases(comm, timing, engine),
    )


# ----------------------------------------------------------------- mutation


def _fit_scenario(scenario: ScenarioSpec, b: int, f: int) -> ScenarioSpec:
    """Clamp a scenario's fault scripts to a (possibly smaller) model."""
    changes: Dict[str, object] = {}
    if b == 0 and scenario.byzantine:
        changes.update(byzantine=(), byzantine_count=-1)
    elif scenario.byzantine_count > b:
        changes.update(byzantine_count=-1)
    if f == 0 and scenario.crashes:
        changes.update(crashes=0, crash_round=1, clean=True)
    elif scenario.crashes > f:
        changes.update(crashes=-1)
    return replace(scenario, **changes) if changes else scenario


def _mutate_once(
    space: FuzzSpace, cand: FuzzCandidate, rng: Random
) -> FuzzCandidate:
    scenario = cand.scenario
    op = rng.randrange(9)
    if op == 0 and len(space.algorithms) > 1:
        pool = [a for a in space.algorithms if a != cand.algorithm]
        return replace(cand, algorithm=pool[rng.randrange(len(pool))])
    if op == 1 and len(space.engines) > 1:
        pool = [e for e in space.engines if e != cand.engine]
        engine = pool[rng.randrange(len(pool))]
        if engine != "lockstep" and scenario.comm.kind == "async-prel":
            # Prel-only delivery is lockstep-only; land on plain loss.
            scenario = replace(
                scenario, comm=CommSpec(kind="lossy", drop_prob=0.5)
            )
        return replace(cand, engine=engine, scenario=scenario)
    if op == 2:
        n, b, f = _pick_model(space, rng)
        return replace(
            cand, n=n, b=b, f=f, scenario=_fit_scenario(scenario, b, f)
        )
    if op == 3:
        byzantine, byz_count = _gen_byzantine(rng, cand.b, space.strategies)
        return replace(
            cand,
            scenario=replace(
                scenario, byzantine=byzantine, byzantine_count=byz_count
            ),
        )
    if op == 4 and scenario.byzantine:
        slot = rng.randrange(len(scenario.byzantine))
        name = space.strategies[rng.randrange(len(space.strategies))]
        names = (
            scenario.byzantine[:slot] + (name,) + scenario.byzantine[slot + 1:]
        )
        return replace(cand, scenario=replace(scenario, byzantine=names))
    if op == 5:
        crashes, crash_round, clean = _gen_crashes(rng, cand.f)
        return replace(
            cand,
            scenario=replace(
                scenario, crashes=crashes, crash_round=crash_round, clean=clean
            ),
        )
    if op == 6:
        comm = _gen_comm(rng, cand.n, cand.engine)
        return replace(
            cand,
            scenario=replace(scenario, comm=comm),
            max_phases=suggest_phases(comm, scenario.timing, cand.engine),
        )
    if op == 7 and cand.engine == "timed":
        timing = _gen_timing(rng, cand.engine)
        return replace(
            cand,
            scenario=replace(scenario, timing=timing),
            max_phases=suggest_phases(scenario.comm, timing, cand.engine),
        )
    if op == 8:
        delta = rng.choice((-4, 4))
        return replace(cand, max_phases=max(4, cand.max_phases + delta))
    return cand


def mutate(space: FuzzSpace, cand: FuzzCandidate, rng: Random) -> FuzzCandidate:
    """One structured mutation step (possibly stacking two ops).

    A mutation that lands on an invalid or unchanged candidate falls back
    to :func:`generate` — the search never stalls on a saturated source.
    """
    mutated = cand
    for _ in range(1 + (rng.random() < 0.35)):
        try:
            mutated = _mutate_once(space, mutated, rng)
        except ValueError:
            continue
    try:
        FaultModel(mutated.n, mutated.b, mutated.f)
    except ValueError:
        return generate(space, rng)
    if mutated.key() == cand.key():
        return generate(space, rng)
    return mutated
