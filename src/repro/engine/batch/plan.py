"""Batch planning: classify a campaign cell's executions into one of three
execution tiers.

One campaign cell is B runs of one
``(algorithm, model, engine, scenario)`` coordinate differing only in their
repetition index and derived seed.  :func:`plan_cell` decides, *before* any
run executes, how much of that structure the batch kernel may exploit:

* :data:`MODE_REPLICATE` — the run outcome is provably seed-independent
  (no stochastic communication, no randomized coin, only deterministic
  Byzantine strategies, and — on the timed engine — delivery that cannot
  miss a deadline).  One representative run executes; its row is cloned
  per repetition with only ``run_id`` / ``rep`` / ``seed`` patched.  This
  is the dominant tier for the paper's Table-1 sweeps and delivers the
  order-of-magnitude batch speedup.  A caller that supplies its own
  *unanimous* proposal (every honest process proposes one ``tuple`` —
  :mod:`repro.smr.serve`'s batches) is promised more: the execution is the
  same under any such proposal, up to renaming that one value, because
  everything else in the run is a ``str`` a whitelisted strategy utters
  and the value order (``_sort_key``: type name, then ``repr``) ranks every
  ``str`` before every ``tuple``.
* :data:`MODE_COLUMNAR_STATE` — seed-dependent cells, on either engine,
  whose *entire generic algorithm* is provably expressible as an array
  program over ``(B runs × n processes)`` state: the value alphabet is
  closed and encodable as small ints, the FLV is one of the paper's
  classes 1–3, the Selector is pid-independent, Byzantine payloads are
  run-invariant (for ``adaptive-liar``: a function of a per-run vote
  tally the program carries as a ``(B, V)`` count array), and the per-run
  seed enters only through ``(B, n, n)`` delivery masks — deadline misses
  and bad-round loss coins on the timed engine, the oracle policy's loss
  coins on the lockstep one.  One array program advances every run's
  votes/timestamps/decisions at once
  (:mod:`repro.engine.batch.columnar_state`); the scalar kernel remains
  the oracle it is checked against.
* :data:`MODE_SCALAR` — everything else (``async-prel``, randomized coins,
  crash scripts, unknown Byzantine strategies, coordinator-style
  selectors, the ``REPRO_SLOW_SCHEDULER`` escape hatch):
  the per-run scalar oracle, byte for byte.

The classification is deliberately conservative: anything the rules cannot
prove seed-independent or mask-expressible drops to the oracle.
Misclassifying *down* costs only speed; the byte-identity suite exists to
prove the tiers above never misclassify *up*.  ``repro campaign plan
--explain`` prints every clause of :func:`columnar_state_blockers` a
scalar cell failed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List

from repro.core.flv_class1 import FLVClass1
from repro.core.flv_class2 import FLVClass2
from repro.core.flv_class3 import FLVClass3
from repro.core.selector import (
    AllProcessesSelector,
    FixedSelector,
    RotatingCoordinatorSelector,
    RotatingSubsetSelector,
)
from repro.engine.cell import RunSpec, admit
from repro.engine.scheduler import SLOW_SCHEDULER_ENV
from repro.eventsim.network import NetworkSpec
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "DETERMINISTIC_STRATEGIES",
    "MODE_COLUMNAR_STATE",
    "MODE_REPLICATE",
    "MODE_SCALAR",
    "BatchPlan",
    "columnar_state_blockers",
    "explain_for_run",
    "plan_cell",
    "plan_for_run",
]

MODE_REPLICATE = "replicate"
MODE_COLUMNAR_STATE = "columnar-state"
MODE_SCALAR = "scalar"

#: Registered Byzantine strategies with seed-independent payloads, an array
#: form, *and* own utterances of type ``str`` only (any other value a member
#: sends is an echo of a vote it was shown) — the last clause is what lets
#: the serve loop reuse one slot's outcome under another batch, and
#: ``tests/smr/test_serve_tiers.py`` drives every member to check it.
#: Every strategy in :data:`repro.faults.STRATEGY_REGISTRY`
#: today qualifies — even ``noise`` seeds its garbage stream from the
#: process id, not the run seed — but the whitelist is explicit so a future
#: seed-driven adversary degrades to the scalar tier instead of silently
#: replicating one run's luck across a cell.  The same set has an array
#: form on the columnar-state tier: all but ``adaptive-liar`` are
#: inbox-free (payloads precompute per cell), and the liar's inbox enters
#: through its vote tally alone.
DETERMINISTIC_STRATEGIES = frozenset(
    {
        "silent",
        "noise",
        "equivocator",
        "vote-flipper",
        "high-ts-liar",
        "fake-history-liar",
        "adaptive-liar",
    }
)


@dataclass(frozen=True)
class BatchPlan:
    """How the batch kernel should execute one cell's runs."""

    mode: str
    reason: str


def _timed_delivery_deterministic(timing: NetworkSpec) -> bool:
    """True when no timed latency draw can ever miss a round deadline.

    With GST at time 0 every sample is clamped to δ, so when
    ``min(max_latency, δ) ≤ Δ`` the deadline test passes for every possible
    draw — delivery (and therefore the outcome) is independent of the
    latency stream, even though the stream is still consumed.
    """
    if timing.gst > 0:
        return False
    max_latency = timing.low if timing.kind == "fixed" else timing.high
    return min(max_latency, timing.delta) <= timing.round_duration


def columnar_state_blockers(
    scenario: ScenarioSpec, parameters: object, config: object
) -> List[str]:
    """Every reason a seed-dependent cell cannot run as one array program.

    Empty means eligible.  Each clause guards an assumption the
    columnar-state executor bakes into its per-cell templates; anything
    unprovable here leaves the cell on the scalar oracle (cost: speed,
    never bytes):

    * no crashes — the array program has no crash schedule;
    * only whitelisted Byzantine strategies — payloads precompute per
      cell, ``adaptive-liar``'s up to its per-run tally;
    * a comm kind whose per-round delivery reduces to per-edge booleans
      (``async-prel`` samples per-receiver subsets);
    * an FLV that is exactly one of the paper's classes 1–3 — the columnar
      evaluators in :mod:`repro.core.columnar` mirror Algorithms 2–4 only;
    * a pid-independent Selector (suggestion sets depend on the phase, not
      the asking process), so suggestions become per-phase templates;
    * when the FLAG needs a validation round, the static-selector
      optimization must be active — validator sets are then per-phase
      templates instead of per-message quorum scans;
    * none of the config switches that grow or reshape state
      (``skip_first_selection``, history bounding, the line-26 ablation).
    """
    why: List[str] = []
    if scenario.crashes != 0:
        why.append("crash script (the array program has no crash schedule)")
    why.extend(
        f"strategy {name!r} has no array form"
        for name in scenario.byzantine
        if name not in DETERMINISTIC_STRATEGIES
    )
    if not scenario.comm.per_edge:
        why.append("comm kind 'async-prel' has no per-edge mask form")
    flv = getattr(parameters, "flv", None)
    if type(flv) not in (FLVClass1, FLVClass2, FLVClass3):
        why.append(f"FLV {type(flv).__name__} is not one of classes 1-3")
    selector = getattr(parameters, "selector", None)
    if type(selector) not in (
        AllProcessesSelector,
        FixedSelector,
        RotatingSubsetSelector,
        RotatingCoordinatorSelector,
    ):
        why.append(f"selector {type(selector).__name__} is not pid-independent")
    for switch in ("skip_first_selection", "record_validation_in_history"):
        if getattr(config, switch, False):
            why.append(f"config switch {switch} reshapes state")
    if getattr(config, "max_history_size", None) is not None:
        why.append("config switch max_history_size reshapes state")
    if parameters.flag.needs_validation_round:
        static = (
            config.uses_static_selector(selector)
            if config is not None
            else selector.is_static
        )
        if not static:
            why.append("validation round needs per-message selector quorums")
    return why


def plan_cell(
    scenario: ScenarioSpec,
    engine: str,
    config: object = None,
    parameters: object = None,
) -> BatchPlan:
    """Classify one ``(scenario, engine, config)`` cell into a batch tier.

    ``config`` is the resolved algorithm's
    :class:`~repro.core.parameters.GenericConsensusConfig` (or ``None``
    when unresolved); a randomized coin forces the scalar tier.
    ``parameters`` is the resolved
    :class:`~repro.core.parameters.ConsensusParameters` — required for the
    columnar-state tier (without it the planner cannot prove the FLV /
    Selector expressible as reductions, so seed-dependent cells stay on
    the scalar oracle).
    """
    if getattr(config, "coin", None) is not None:
        return BatchPlan(MODE_SCALAR, "randomized coin consumes per-run seed")
    unknown = [
        name
        for name in scenario.byzantine
        if name not in DETERMINISTIC_STRATEGIES
    ]
    if unknown:
        return BatchPlan(
            MODE_SCALAR, f"strategy {unknown[0]!r} not proven seed-independent"
        )
    # Per-edge delivery consumes per-run randomness through loss coins only.
    comm_det = scenario.comm.per_edge and not scenario.comm.draws_coins()
    if comm_det and engine == "lockstep":
        return BatchPlan(MODE_REPLICATE, "deterministic lockstep delivery")
    if engine == "timed":
        if comm_det and _timed_delivery_deterministic(scenario.timing):
            return BatchPlan(
                MODE_REPLICATE, "timed delivery cannot miss a deadline"
            )
        if os.environ.get(SLOW_SCHEDULER_ENV, "") not in ("", "0"):
            return BatchPlan(
                MODE_SCALAR, "REPRO_SLOW_SCHEDULER forces the heap oracle"
            )
    if parameters is not None and not columnar_state_blockers(
        scenario, parameters, config
    ):
        return BatchPlan(
            MODE_COLUMNAR_STATE,
            "generic algorithm runs as one (runs × processes) "
            "array program over delivery masks",
        )
    if engine == "timed":
        return BatchPlan(MODE_SCALAR, "seed-dependent timed delivery")
    return BatchPlan(MODE_SCALAR, "stochastic lockstep policy")


def plan_for_run(run: RunSpec) -> BatchPlan:
    """The plan for a cell, keyed by one of its runs.

    Admits the cell (:func:`~repro.engine.cell.admit` — the worker memo,
    so campaign chunks pay nothing extra) to inspect its parameters and
    config; a rejected cell yields the scalar tier, whose per-run oracle
    produces the proper ``inadmissible`` / ``error`` rows.
    """
    try:
        _model, parameters, config = admit(run.algorithm, run.n, run.b, run.f)
    except Exception:
        return BatchPlan(MODE_SCALAR, "algorithm/model resolution failed")
    return plan_cell(run.scenario, run.engine, config, parameters=parameters)


def explain_for_run(run: RunSpec) -> List[str]:
    """Everything keeping a cell off the columnar-state tier, clause by
    clause (``repro campaign plan --explain``); empty when nothing does."""
    try:
        _model, parameters, config = admit(run.algorithm, run.n, run.b, run.f)
    except Exception as exc:
        return [f"{type(exc).__name__}: {exc}"]
    why = columnar_state_blockers(run.scenario, parameters, config)
    if getattr(config, "coin", None) is not None:
        why.insert(0, "randomized coin consumes per-run seed")
    return why
