"""Execute one fuzz candidate and classify the outcome.

:func:`execute_candidate` runs a candidate the way the campaign runner
runs a cell — the same admission step (:func:`~repro.engine.cell.admit`),
the same kernel on the ``observe="metrics"`` hot path, never raises — with
one twist: when admission rejects the candidate's model and the caller
opted into ``over_bound`` execution, the cell runs anyway on *boundary
parameters* (the algorithm's Table-1 class at a ``TD`` clamped into the
termination bound but below the agreement bound, built through
:meth:`~repro.core.parameters.ConsensusParameters.unchecked`).  That is
exactly where the paper predicts counterexamples, and finding them is the
fuzzer's positive control.

:func:`classify_candidate` turns the row into a :class:`Verdict`:

* ``"safety"`` — the invariant report shows agreement, validity or
  unanimity violated;
* ``"liveness"`` — termination failed *and* the candidate is
  liveness-eligible (eventually-good communication, post-GST delivery
  within the round, a budget covering the bad prefix, no randomized coin)
  — everything else stalls legitimately and is not a finding;
* ``"error"`` — the engine raised, which for in-bounds cells is always a
  bug worth a corpus entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.invariants import SAFETY_PROPERTIES
from repro.core.classification import AlgorithmClass
from repro.core.parameters import (
    ConsensusParameters,
    GenericConsensusConfig,
    ParameterError,
)
from repro.core.selector import AllProcessesSelector
from repro.core.types import FaultModel
from repro.engine.assembly import build_instance
from repro.engine.cell import (
    STATUS_ERROR,
    STATUS_INADMISSIBLE,
    STATUS_INAPPLICABLE,
    STATUS_OK,
    admit,
    derive_seed,
    describe_error,
    rejection_verdict,
)
from repro.engine.kernel import OBSERVE_METRICS, run_instance
from repro.fuzz.space import FuzzCandidate, suggest_phases
from repro.scenarios.compile import ScenarioInapplicable, compile_scenario
from repro.scenarios.spec import split_values

#: Over-bound execution modes: ``never`` records bound rejections as
#: inadmissible (the campaign semantics), ``allow`` executes them on
#: boundary parameters, ``only`` additionally skips in-bounds cells (the
#: CI positive-control job uses it to spend its whole budget at the
#: boundary).
OVER_BOUND_MODES = ("never", "allow", "only")

#: Which Table-1 class hosts each algorithm's boundary construction.
#: ``ben-or`` is absent on purpose: its randomized coin has no
#: deterministic boundary cell.
BOUNDARY_CLASSES: Dict[str, AlgorithmClass] = {
    "one-third-rule": AlgorithmClass.CLASS_1,
    "fab-paxos": AlgorithmClass.CLASS_1,
    "paxos": AlgorithmClass.CLASS_2,
    "chandra-toueg": AlgorithmClass.CLASS_2,
    "mqb": AlgorithmClass.CLASS_2,
    "pbft": AlgorithmClass.CLASS_3,
    "class-1": AlgorithmClass.CLASS_1,
    "class-2": AlgorithmClass.CLASS_2,
    "class-3": AlgorithmClass.CLASS_3,
}

#: Statuses (beyond the campaign four) a candidate row may carry.
STATUS_SKIPPED = "skipped"

#: Finding kinds, most severe first.
FINDING_KINDS = ("safety", "liveness", "error")


def candidate_seed(fuzz_seed: int, candidate: FuzzCandidate) -> int:
    """The candidate's run seed — content-derived, not position-derived.

    Shrunk, mutated and replayed candidates each get the seed their own
    coordinates imply, so a finding reproduces from its corpus record alone
    (plus the fuzz seed), independent of search history.
    """
    return derive_seed(fuzz_seed, f"fuzz|{candidate.key()}")


def boundary_parameters(
    name: str, model: FaultModel
) -> Tuple[ConsensusParameters, GenericConsensusConfig]:
    """Deliberately-over-bound parameters for ``name`` at ``model``.

    ``TD`` is the class's minimal agreement-safe threshold clamped into
    ``[1, n − b − f]``: termination stays feasible (the run can decide)
    while the agreement bound is violated whenever the model is outside
    the class's ``n`` bound — the exact regime Theorem 1 stops protecting.
    """
    cls = BOUNDARY_CLASSES.get(name)
    if cls is None:
        raise ParameterError(f"no boundary construction for {name!r}")
    td = max(1, min(cls.min_threshold(model), model.max_decision_threshold))
    return (
        ConsensusParameters.unchecked(
            model, td, cls.flag, cls.make_flv(model, td),
            AllProcessesSelector(model),
        ),
        GenericConsensusConfig(),
    )


def _base_row(candidate: FuzzCandidate, seed: int) -> Dict[str, object]:
    return {
        "algorithm": candidate.algorithm,
        "n": candidate.n,
        "b": candidate.b,
        "f": candidate.f,
        "engine": candidate.engine,
        "fault": candidate.scenario.describe_fault(),
        "network": candidate.scenario.describe_network(),
        "max_phases": candidate.max_phases,
        "seed": seed,
        "status": STATUS_OK,
        "over_bound": False,
        "randomized": False,
        "agreement": None,
        "validity": None,
        "unanimity": None,
        "termination": None,
        "decided": None,
        "rounds": None,
        "error": None,
    }


def execute_candidate(
    candidate: FuzzCandidate, seed: int, *, over_bound: str = "never"
) -> Dict[str, object]:
    """One candidate through the metrics-mode kernel (never raises)."""
    if over_bound not in OVER_BOUND_MODES:
        raise ValueError(
            f"unknown over_bound mode {over_bound!r}; known: {OVER_BOUND_MODES}"
        )
    row = _base_row(candidate, seed)
    try:
        model, parameters, config = admit(
            candidate.algorithm, candidate.n, candidate.b, candidate.f
        )
    except Exception as exc:
        # The resilience bound (or the builder's fault envelope) rejects
        # this model: inadmissible under campaign semantics, the boundary
        # regime under over-bound search.
        status, error = rejection_verdict(exc)
        if (
            status != STATUS_INADMISSIBLE
            or over_bound == "never"
            or candidate.algorithm not in BOUNDARY_CLASSES
        ):
            row.update(status=status, error=error)
            return row
        try:
            model = FaultModel(candidate.n, candidate.b, candidate.f)
            parameters, config = boundary_parameters(candidate.algorithm, model)
        except ValueError as exc2:
            row.update(status=STATUS_INADMISSIBLE, error=str(exc2))
            return row
        row["over_bound"] = True
    else:
        if over_bound == "only":
            row.update(
                status=STATUS_SKIPPED,
                error="in-bounds cell skipped (over_bound='only')",
            )
            return row
    row["randomized"] = config.coin is not None

    try:
        compiled = compile_scenario(
            candidate.scenario, model, candidate.engine, seed
        )
    except ScenarioInapplicable as exc:
        row.update(status=STATUS_INAPPLICABLE, error=str(exc))
        return row
    except Exception as exc:
        row.update(status=STATUS_ERROR, error=describe_error(exc))
        return row

    initial_values = split_values(model, compiled.byzantine)
    try:
        instance = build_instance(
            parameters,
            initial_values,
            config=config,
            byzantine=compiled.byzantine,
            seed=compiled.seed,
        )
        outcome = run_instance(
            instance,
            compiled.scheduler,
            max_phases=compiled.max_phases(candidate.max_phases),
            observe=OBSERVE_METRICS,
            crash_schedule=compiled.crash_schedule,
        )
        row.update(
            decided=len(outcome.decisions),
            rounds=outcome.rounds_executed,
            **outcome.invariant_report(),
        )
    except ScenarioInapplicable as exc:
        # The Pcons stack refuses a non-Π selector in its first round.
        row.update(status=STATUS_INAPPLICABLE, error=str(exc))
    except Exception as exc:
        row.update(status=STATUS_ERROR, error=describe_error(exc))
    return row


def liveness_eligible(candidate: FuzzCandidate, *, randomized: bool) -> bool:
    """Would a stalled run under this candidate be a *finding*?

    Only scenarios whose communication is eventually good, whose timed
    network delivers every message within its round from GST on
    (:meth:`~repro.eventsim.network.NetworkSpec.arrives` is ``True``), and
    whose phase budget covers the bad prefix make a missing decision
    evidence of a liveness violation.  Randomized algorithms are never
    eligible: their termination is probabilistic, so a fixed horizon can
    stall honestly.
    """
    if randomized:
        return False
    scenario = candidate.scenario
    comm = scenario.comm
    if not comm.eventually_good():
        return False
    if candidate.engine == "timed" and not scenario.timing.arrives(scenario.timing.gst):
        return False
    return candidate.max_phases >= suggest_phases(
        comm, scenario.timing, candidate.engine
    )


@dataclass(frozen=True)
class Verdict:
    """The classified outcome of one candidate execution."""

    status: str
    kind: Optional[str]  # a FINDING_KINDS entry, or None
    violated: Tuple[str, ...]  # which safety properties failed
    row: Dict[str, object]

    @property
    def is_finding(self) -> bool:
        return self.kind is not None


def classify_row(
    candidate: FuzzCandidate, row: Dict[str, object]
) -> Verdict:
    """Classify an executed candidate row (pure, deterministic)."""
    status = str(row["status"])
    if status == STATUS_ERROR:
        return Verdict(status=status, kind="error", violated=(), row=row)
    if status != STATUS_OK:
        return Verdict(status=status, kind=None, violated=(), row=row)
    violated = tuple(
        prop
        for prop in SAFETY_PROPERTIES
        if row.get(prop) is False
    )
    if violated:
        return Verdict(status=status, kind="safety", violated=violated, row=row)
    if row.get("termination") is False and liveness_eligible(
        candidate, randomized=bool(row.get("randomized"))
    ):
        return Verdict(status=status, kind="liveness", violated=(), row=row)
    return Verdict(status=status, kind=None, violated=(), row=row)


def classify_candidate(
    candidate: FuzzCandidate, seed: int, *, over_bound: str = "never"
) -> Verdict:
    """Execute and classify one candidate (the fuzz loop's inner step)."""
    return classify_row(
        candidate, execute_candidate(candidate, seed, over_bound=over_bound)
    )
