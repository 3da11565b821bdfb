"""Scenario compilation: one spec onto both timing disciplines.

:func:`compile_scenario` turns a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` into the three concrete objects
an execution needs — the Byzantine placement map, the crash schedule, and a
ready :class:`~repro.engine.scheduler.RoundScheduler` — for either engine.

A communication spec compiles to **one** ``(schedule, edge rule)`` pair
(:func:`_good_bad`: the spec's normal form picks the schedule, the single
:func:`_bad_rule` clause turns its bad behaviour into code), or to nothing
when no round is ever bad, and both timing disciplines take that pair:

* ``engine="lockstep"`` — a :class:`~repro.engine.scheduler.LockstepScheduler`
  over the pair (oracle predicates in good rounds), or a
  :class:`~repro.engine.scheduler.PrelScheduler` for the one kind that is
  not per-edge;
* ``engine="timed"`` — the timing spec builds a
  :class:`~repro.eventsim.network.PartialSynchronyNetwork` and the
  :class:`~repro.engine.scheduler.TimedScheduler` takes the same pair, so
  partitions, loss windows and GST prefixes run under Δ-paced deadline
  delivery too.

Compilation pre-resolves per-round delivery behaviour: good/bad schedule
lookups are memoized per round number and a partition is one precomputed
edge set shared by every run of its groups, so the ``observe="metrics"``
hot path pays no repeated predicate evaluation inside the round loop.

A scenario a configuration cannot host raises :class:`ScenarioInapplicable`
(a ``ValueError``): Byzantine placement with ``b = 0``, more crashes than
``f``, or ``Prel``-only delivery on the timed engine.  The campaign runner
maps it to an ``inapplicable`` row instead of an error.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.core.types import FaultModel, ProcessId
from repro.engine.kernel import DEFAULT_PHASES, run_instance
from repro.engine.scheduler import (
    ENGINES,
    GoodBad,
    LockstepScheduler,
    PrelScheduler,
    RoundScheduler,
    TimedScheduler,
)
from repro.faults.crash import CrashEvent, CrashSchedule
from repro.rounds.policies import (
    BadBehavior,
    partition_behavior,
    random_drop_behavior,
    silent_behavior,
)
from repro.rounds.schedule import GoodBadSchedule
from repro.scenarios.spec import CommSpec, ScenarioSpec, split_values
from repro.utils.memo import cached_outcome

class ScenarioInapplicable(ValueError):
    """This configuration (model / engine) cannot host the scenario."""


# ----------------------------------------------------------- schedule memo


#: Seed-independent compilation artifacts, memoized per worker process: one
#: campaign typically re-compiles the same few dozen (spec, model, engine)
#: cells thousands of times — every repetition and every derived-seed run
#: shares the same schedule object, partition edge set, Byzantine placement
#: and crash schedule (all immutable once built, so sharing is safe).
_TEMPLATE_MEMO: Dict[Tuple[ScenarioSpec, FaultModel], Tuple[bool, object]] = {}


@functools.cache
def _memoized_schedule(comm: CommSpec) -> GoodBadSchedule:
    """The good/bad schedule of ``comm`` with per-round lookups memoized.

    Round structures repeat the same round numbers across thousands of
    campaign runs of one process; windows/alternating predicates otherwise
    re-scan their window lists every round.  The schedule object itself is
    cached per ``comm`` spec, so those per-round memo hits accumulate
    across every run of a campaign cell instead of starting cold each run.
    """
    shape, _bad = comm.regime()
    if shape == "after":
        base = GoodBadSchedule.good_after(comm.good_from)
    elif shape == "windows":
        base = GoodBadSchedule.windows(comm.windows)
    elif shape == "alternating":
        base = GoodBadSchedule.alternating(comm.good_len, comm.bad_len)
    elif shape == "never":
        base = GoodBadSchedule.never_good()
    else:
        base = GoodBadSchedule.always_good()

    memo: Dict[int, bool] = {}

    def is_good(round_number: int) -> bool:
        cached = memo.get(round_number)
        if cached is None:
            memo[round_number] = cached = base.is_good(round_number)
        return cached

    return GoodBadSchedule(is_good, base.description)


@functools.cache
def _partition_rule(groups: Tuple[Tuple[ProcessId, ...], ...]) -> BadBehavior:
    """One shared (stateless) partition rule per group tuple."""
    return partition_behavior(groups)


def _bad_rule(
    comm: CommSpec, model: FaultModel, rng: random.Random
) -> BadBehavior:
    """The edge rule of ``comm``'s bad rounds — the one place a bad
    behaviour's name becomes code."""
    if not comm.per_edge:
        raise ScenarioInapplicable(
            "Prel-only delivery needs the per-receiver subset oracle; "
            "it runs on the lockstep engine only"
        )
    _shape, bad = comm.regime()
    if bad == "drop":
        return random_drop_behavior(rng, comm.drop_prob)
    if bad == "partition":
        half = model.n // 2
        return _partition_rule(
            comm.groups
            if comm.groups is not None
            else (tuple(range(half)), tuple(range(half, model.n)))
        )
    return silent_behavior()  # "silence"


def _good_bad(
    comm: CommSpec, model: FaultModel, rng: random.Random
) -> Optional[GoodBad]:
    """``comm`` as the ``(schedule, bad-round edge rule)`` pair both
    schedulers take; ``None`` when no round is ever bad."""
    if comm.never_bad():
        return None
    return _memoized_schedule(comm), _bad_rule(comm, model, rng)


# ------------------------------------------------------------- compilation


@dataclass
class CompiledScenario:
    """A scenario resolved against one model and one timing discipline."""

    spec: ScenarioSpec
    model: FaultModel
    engine: str
    #: pid → strategy name (resolved placement; at most ``b`` entries).
    byzantine: Dict[ProcessId, str]
    crash_schedule: Optional[CrashSchedule]
    scheduler: RoundScheduler
    #: The run's seed — what ``build_instance(seed=...)`` turns into the
    #: per-process coins of a randomized algorithm.
    seed: int

    def max_phases(self, requested: int = DEFAULT_PHASES) -> int:
        """The run's horizon in phases: ``requested``, raised to the least
        horizon the scenario needs (a GST at round 10, a late partition
        heal) when it names one."""
        return max(requested, self.spec.max_phases or 0)


def _resolve_byzantine(
    spec: ScenarioSpec, model: FaultModel
) -> Dict[ProcessId, str]:
    if not spec.byzantine:
        return {}
    if model.b == 0:
        raise ScenarioInapplicable("byzantine fault script but model has b = 0")
    count = (
        model.b if spec.byzantine_count == -1 else spec.byzantine_count
    )
    if count > model.b:
        raise ScenarioInapplicable(
            f"scenario places {count} Byzantine processes but model has "
            f"b = {model.b}"
        )
    return spec.byzantine_map(model)


def _resolve_crashes(
    spec: ScenarioSpec, model: FaultModel
) -> Optional[CrashSchedule]:
    count = spec.crash_count(model)
    if not count:
        return None
    if count > model.f:
        raise ScenarioInapplicable(
            f"fault script crashes {count} > f = {model.f} processes"
        )
    deliver = None if spec.clean else frozenset()
    return CrashSchedule(
        model,
        [CrashEvent(pid, spec.crash_round, deliver) for pid in range(count)],
    )


def _scenario_template(
    spec: ScenarioSpec, model: FaultModel
) -> Tuple[Dict[ProcessId, str], Optional[CrashSchedule]]:
    """The seed-independent half of compilation, memoized per process.

    Byzantine placement and the crash schedule depend only on
    ``(spec, model)``; campaign workers re-compile the same cell once per
    derived seed, so both — including a :class:`ScenarioInapplicable`
    verdict — are computed once and replayed.  The placement dict is
    copied per call (callers receive it as mutable state); the crash
    schedule is immutable after construction and shared.
    """
    byzantine, crash_schedule = cached_outcome(
        _TEMPLATE_MEMO,
        (spec, model),
        lambda: (_resolve_byzantine(spec, model), _resolve_crashes(spec, model)),
        cache_exceptions=(ScenarioInapplicable,),
    )
    return dict(byzantine), crash_schedule


def compile_scenario(
    spec: ScenarioSpec,
    model: FaultModel,
    engine: str = "lockstep",
    rng: Optional[int] = None,
) -> CompiledScenario:
    """Resolve ``spec`` against ``model`` for one timing discipline.

    ``rng`` is the run's seed (``None`` is seed 0): it seeds the delivery
    stream and, on the timed engine, the network the timing spec builds.

    Raises :class:`ScenarioInapplicable` when the configuration cannot host
    the scenario; any other spec inconsistency raises :class:`ValueError`.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    seed = 0 if rng is None else int(rng)
    delivery_rng = random.Random(seed)
    byzantine, crash_schedule = _scenario_template(spec, model)
    scheduler: RoundScheduler
    if engine == "lockstep" and not spec.comm.per_edge:
        scheduler = PrelScheduler(delivery_rng)
    elif engine == "lockstep":
        scheduler = LockstepScheduler(_good_bad(spec.comm, model, delivery_rng))
    else:
        scheduler = TimedScheduler(
            spec.timing.build(seed),
            good_bad=_good_bad(spec.comm, model, delivery_rng),
        )
    return CompiledScenario(
        spec=spec,
        model=model,
        engine=engine,
        byzantine=byzantine,
        crash_schedule=crash_schedule,
        scheduler=scheduler,
        seed=seed,
    )


def run_scenario(
    spec: Union[str, ScenarioSpec],
    parameters,
    *,
    engine: str = "lockstep",
    rng: Optional[int] = None,
    initial_values=None,
    config=None,
    observe: str = "full",
    max_phases: int = DEFAULT_PHASES,
    telemetry=None,
):
    """Compile ``spec`` (a name or a spec) and run one instance through the
    unified kernel, returning the engine :class:`~repro.engine.Outcome`.

    It runs at most ``max_phases`` phases, raised to the scenario's own
    horizon (:meth:`CompiledScenario.max_phases`).
    ``observe="profile"`` (or an explicit ``telemetry`` registry) wall-times
    the run's phases; the registry comes back as ``Outcome.telemetry``."""
    from repro.engine.assembly import build_instance

    if isinstance(spec, str):
        from repro.scenarios.registry import get_scenario

        spec = get_scenario(spec)
    compiled = compile_scenario(spec, parameters.model, engine, rng)
    values = (
        initial_values
        if initial_values is not None
        else split_values(compiled.model, compiled.byzantine)
    )
    instance = build_instance(
        parameters,
        values,
        config=config,
        byzantine=compiled.byzantine,
        seed=compiled.seed,
    )
    return run_instance(
        instance,
        compiled.scheduler,
        max_phases=compiled.max_phases(max_phases),
        observe=observe,
        crash_schedule=compiled.crash_schedule,
        telemetry=telemetry,
    )
