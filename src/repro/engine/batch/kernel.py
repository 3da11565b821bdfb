"""The batch kernel: execute one campaign cell's runs as a unit.

:func:`run_batch` takes B runs of **one cell** (same algorithm, model,
engine and scenario — differing only in repetition and derived seed) and
produces exactly the rows the scalar oracle
(:func:`~repro.campaigns.runner.execute_run`) would, in input order, as
:class:`~repro.engine.cell.GroupedRows`:

* replicate tier — execute one representative and return its row *once*,
  as a group carrying every run's ``(rep, run_id, seed)`` coordinates (a
  cell the algorithm rejects returns its verdict row the same way);
* columnar-state tier — execute the whole cell as one array program over
  ``(B runs × n processes)`` state (:mod:`repro.engine.batch
  .columnar_state`), the per-run seed entering only through delivery
  masks;
* scalar tier — per-run oracle execution, byte for byte.

Demotion discipline: a tier that cannot hold its oracle-identity contract
raises — :class:`~repro.engine.batch.columnar_state.Demote` with the
reason (numpy absent, a template assumption failing at build time, a
representative run that errored) or any other exception — and the whole
cell re-executes on the scalar oracle.  Error tracebacks embed frame
names, and only the oracle's frames are byte-stable across backends, so
``error`` rows are never fabricated here.  Rows that carry no traceback
(``inadmissible`` / ``inapplicable`` and resolution failures, whose text
is a plain message) are emitted directly.  Every demoted row is counted
under ``batch.demoted[<reason>]``.

Every row is tagged with a volatile ``_backend`` field (``replicate`` /
``columnar-state`` / ``scalar``) for the events sidecar and progress
display; volatile fields never reach the canonical JSONL.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import List, Optional, Sequence

from repro.analysis.invariants import evaluate_properties
from repro.core.types import FaultModel

# ``build_instance`` is not used here; it stays importable from this module
# because the frozen end-to-end benchmark (benchmarks/e2e/trace.py) rebinds
# it by this name.
from repro.engine.assembly import build_instance  # noqa: F401
from repro.engine.batch.columnar_state import CellProgram, Demote
from repro.engine.batch.plan import (
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    MODE_SCALAR,
    BatchPlan,
    plan_for_run,
)
from repro.engine.cell import (
    STATUS_ERROR,
    STATUS_INAPPLICABLE,
    GroupedRows,
    Row,
    RowPart,
    RunSpec,
    admit,
    cell_coords,
    open_row,
)
from repro.observability.telemetry import Telemetry
from repro.scenarios.compile import (
    CompiledScenario,
    ScenarioInapplicable,
    compile_scenario,
)
from repro.utils.accel import get_numpy

__all__ = ["run_batch"]


def run_batch(
    runs: Sequence[RunSpec],
    *,
    timings: bool = False,
    telemetry: Optional[Telemetry] = None,
    plan: Optional[BatchPlan] = None,
) -> GroupedRows:
    """Execute one cell's runs through the planned batch tier (never raises).

    Returns one row per run, in input order, byte-identical (after
    volatile-field stripping) to mapping the scalar oracle over ``runs`` —
    a group where the tier proved the rows equal but for their coordinates.
    ``plan`` defaults to :func:`~repro.engine.batch.plan.plan_for_run` on
    the first run; ``timings=True`` stamps each row with the batch's
    equal-share wall time (volatile, like the oracle's own timing fields).
    """
    if not runs:
        return GroupedRows([])
    if timings:
        started = perf_counter()
        rows = run_batch(runs, telemetry=telemetry, plan=plan)
        share = round((perf_counter() - started) * 1000 / len(runs), 3)
        pid = os.getpid()
        for row, _coords in rows.parts:
            row["_elapsed_ms"] = share
            row["_pid"] = pid
        return rows
    first = runs[0]
    if plan is None:
        plan = plan_for_run(first)
    if telemetry is not None:
        telemetry.count("batch.rows", len(runs))

    parts: Optional[List[RowPart]] = None
    tier = "batch.replicated_rows"
    # Tier production is demotion-safe: whichever way a tier fails — a
    # Demote with its reason or a broken template assumption surfacing as
    # any other exception — the cell re-executes on the per-run oracle, so
    # ``run_batch`` keeps its never-raises, byte-identical contract.
    demoted = None
    try:
        if plan.mode == MODE_REPLICATE:
            parts = _replicate_rows(runs)
        elif plan.mode == MODE_COLUMNAR_STATE:
            tier = "batch.columnar_state_rows"
            if telemetry is not None:
                with telemetry.span("scheduler.batch"):
                    rows = columnar_state_rows(runs)
            else:
                rows = columnar_state_rows(runs)
            parts = [(row, None) for row in rows]
    except Demote as exc:
        demoted = str(exc)
    except Exception as exc:
        demoted = f"tier raised {type(exc).__name__}"

    if parts is not None:
        if telemetry is not None:
            telemetry.count(tier, len(runs))
        return GroupedRows(parts)
    # The planner's scalar tier, or a demoted cell.
    if telemetry is not None:
        telemetry.count("batch.fallback_scalar", len(runs))
        if demoted is not None:
            telemetry.count(f"batch.demoted[{demoted}]", len(runs))
    try:
        admit(first.algorithm, first.n, first.b, first.f)
        rejected = False
    except (ValueError, KeyError):
        rejected = True  # a pure function of the cell, memoized as such
    except Exception:
        rejected = False  # possibly transient: every run asks for itself
    if rejected:
        parts = [(open_row(first)[0], cell_coords(runs))]
    else:
        parts = [(_oracle(run), None) for run in runs]
    for row, _coords in parts:
        row["_backend"] = "scalar"
    return GroupedRows(parts)


def _oracle(run: RunSpec) -> Row:
    """One run through the scalar oracle.

    The one name this package takes from above itself, looked up per call:
    the end-to-end benchmark's tracer (``benchmarks/e2e/trace.py``) rebinds
    ``execute_run`` in the runner's namespace and a module-level binding
    here would escape it.  Goes away when the executors move below
    ``campaigns/`` (ROADMAP).
    """
    from repro.campaigns.runner import execute_run

    return execute_run(run)


def _replicate_rows(runs: Sequence[RunSpec]) -> List[RowPart]:
    """One representative execution standing for all the cell's runs.

    Valid only under the planner's seed-independence proof.  A
    representative ``error`` row demotes the cell: errors may be
    transient, and their traceback text is only byte-stable when each run
    produces its own.
    """
    representative = _oracle(runs[0])
    if representative["status"] == STATUS_ERROR:
        raise Demote("replicate representative errored")
    representative["_backend"] = "replicate"
    return [(representative, cell_coords(runs))]


def compile_batch_scenario(run: RunSpec, model: FaultModel) -> CompiledScenario:
    """One scenario compilation serving a whole cell.

    Placement, the crash schedule and the inapplicability verdict are
    memoized per ``(spec, model)`` and provably seed-independent, so every
    run of the cell gets the outcome the oracle would hand it; the
    scheduler is compiled under the first run's seed and only ever asked
    for zero-draw rounds.
    """
    return compile_scenario(run.scenario, model, run.engine, run.seed)


def columnar_state_rows(runs: Sequence[RunSpec]) -> List[Row]:
    """Execute one cell's runs as a single array program.

    Every row opens with the oracle's own prologue
    (:func:`~repro.engine.cell.open_row`), and one cell has one admission
    and one compilation verdict, so a rejected or inapplicable cell
    returns its verdict rows without running anything.  Raises
    :class:`Demote` when the oracle must take the cell — numpy absent, or
    a template assumption the planner could not see failing — and lets a
    scenario that fails to compile raise through to the same effect:
    traceback rows must be the oracle's own.
    """
    np = get_numpy()
    if np is None:
        raise Demote("numpy absent")
    runs = list(runs)  # a cell slice builds its runs (and seeds) per pass
    rows: List[Row] = []
    for run in runs:
        row, admitted = open_row(run)
        row["_backend"] = "columnar-state"
        rows.append(row)
    if admitted is None:
        return rows
    model, parameters, _config = admitted
    try:
        compiled = compile_batch_scenario(runs[0], model)
    except ScenarioInapplicable as exc:
        for row in rows:
            row.update(status=STATUS_INAPPLICABLE, error=str(exc))
        return rows
    # The planner proved crashes == 0; a schedule appearing anyway means
    # the proof is stale — trust the oracle.
    if compiled.crash_schedule is not None:
        raise Demote("crash schedule")
    program = CellProgram(np, runs[0], parameters, compiled)
    results = program.execute([run.seed for run in runs])
    for row, result in zip(rows, results):
        report = evaluate_properties(
            decided_values=result.pop("decided_values"),
            initial_values=program.initial_values,
            byzantine=program.context.byzantine,
            correct=program.correct,
        )
        row.update(result, **report)
    return rows
