"""The batch kernel: execute one campaign cell's runs as a unit.

:func:`run_batch` takes B runs of **one cell** (same algorithm, model,
engine and scenario — differing only in repetition and derived seed) and
produces exactly the rows the scalar oracle
(:func:`~repro.campaigns.runner.execute_run`) would, in input order:

* replicate tier — execute one representative, clone its row per run with
  only the per-run coordinates (``run_id``, ``rep``, ``seed``) patched;
* columnar-state tier — execute the whole cell as one array program over
  ``(B runs × n processes)`` state (:mod:`repro.engine.batch
  .columnar_state`), the per-run seed entering only through delivery
  masks;
* scalar tier — per-run oracle execution, byte for byte.

Demotion discipline: a tier that cannot hold its oracle-identity contract
raises — :class:`~repro.engine.batch.columnar_state.Demote` with the
reason (numpy absent, a template assumption failing at build time, a
representative run that errored) or any other exception — and the whole
cell re-executes on the scalar oracle; a tier may also hand back ``None``
for single rows it leaves to the oracle.  Error tracebacks embed frame
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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaigns.spec import RunSpec
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
from repro.observability.telemetry import Telemetry
from repro.scenarios.compile import (
    CompiledScenario,
    ScenarioInapplicable,
    compile_scenario,
)
from repro.utils.accel import get_numpy

__all__ = ["cell_key", "run_batch"]

Row = Dict[str, object]


def cell_key(run: RunSpec) -> Tuple:
    """The campaign-cell coordinate of a run: everything but (rep, seed).

    Runs sharing this key differ only in repetition index and derived
    seed — the precondition for batching them through :func:`run_batch`.
    """
    return (run.algorithm, run.n, run.b, run.f, run.engine, run.scenario)


def run_batch(
    runs: Sequence[RunSpec],
    *,
    timings: bool = False,
    telemetry: Optional[Telemetry] = None,
    plan: Optional[BatchPlan] = None,
) -> List[Row]:
    """Execute one cell's runs through the planned batch tier (never raises).

    Returns one row per run, in input order, byte-identical (after
    volatile-field stripping) to mapping the scalar oracle over ``runs``.
    ``plan`` defaults to :func:`~repro.engine.batch.plan.plan_for_run` on
    the first run; ``timings=True`` stamps each row with the batch's
    equal-share wall time (volatile, like the oracle's own timing fields).
    """
    if not runs:
        return []
    if timings:
        started = perf_counter()
        rows = run_batch(runs, telemetry=telemetry, plan=plan)
        share = round((perf_counter() - started) * 1000 / len(rows), 3)
        pid = os.getpid()
        for row in rows:
            row["_elapsed_ms"] = share
            row["_pid"] = pid
        return rows
    if plan is None:
        plan = plan_for_run(runs[0])
    if telemetry is not None:
        telemetry.count("batch.rows", len(runs))

    rows: List[Optional[Row]] = [None] * len(runs)
    tier = "batch.replicated_rows"
    # Tier production is demotion-safe: whichever way a tier fails — a
    # Demote with its reason or a broken template assumption surfacing as
    # any other exception — the cell re-executes on the per-run oracle, so
    # ``run_batch`` keeps its never-raises, byte-identical contract.
    demoted = "tier left the row to the oracle"
    try:
        if plan.mode == MODE_REPLICATE:
            rows = _replicate_rows(runs)
        elif plan.mode == MODE_COLUMNAR_STATE:
            tier = "batch.columnar_state_rows"
            if telemetry is not None:
                with telemetry.span("scheduler.batch"):
                    rows = columnar_state_rows(runs)
            else:
                rows = columnar_state_rows(runs)
    except Demote as exc:
        demoted = str(exc)
    except Exception as exc:
        demoted = f"tier raised {type(exc).__name__}"

    # Scalar completion: the planner's scalar tier, a demoted cell, or
    # single rows a tier left open — all re-execute through the oracle.
    from repro.campaigns.runner import execute_run

    pending = [index for index, row in enumerate(rows) if row is None]
    if telemetry is not None:
        produced = len(runs) - len(pending)
        if pending:
            telemetry.count("batch.fallback_scalar", len(pending))
            if plan.mode != MODE_SCALAR:
                telemetry.count(f"batch.demoted[{demoted}]", len(pending))
        if produced:
            telemetry.count(tier, produced)
    for index in pending:
        row = execute_run(runs[index])
        row["_backend"] = "scalar"
        rows[index] = row
    return rows  # type: ignore[return-value]


def _replicate_rows(runs: Sequence[RunSpec]) -> List[Optional[Row]]:
    """One representative execution, cloned across the cell's runs.

    Valid only under the planner's seed-independence proof.  A
    representative ``error`` row demotes the cell: errors may be
    transient, and their traceback text is only byte-stable when each run
    produces its own.
    """
    from repro.campaigns.runner import STATUS_ERROR, execute_run

    representative = execute_run(runs[0])
    if representative["status"] == STATUS_ERROR:
        raise Demote("replicate representative errored")
    rows: List[Optional[Row]] = []
    for run in runs:
        row = dict(representative)
        row["run_id"] = run.run_id
        row["rep"] = run.rep
        row["seed"] = run.seed
        row["_backend"] = "replicate"
        rows.append(row)
    return rows


def compile_batch_scenario(run: RunSpec, model: FaultModel) -> CompiledScenario:
    """One scenario compilation serving a whole cell.

    Placement, the crash schedule and the inapplicability verdict are
    memoized per ``(spec, model)`` and provably seed-independent, so every
    run of the cell gets the outcome the oracle would hand it; the
    scheduler is compiled under the first run's seed and only ever asked
    for zero-draw rounds.
    """
    return compile_scenario(run.scenario, model, run.engine, run.seed)


def columnar_state_rows(runs: Sequence[RunSpec]) -> List[Optional[Row]]:
    """Execute one cell's runs as a single array program.

    The per-run prologue mirrors the scalar oracle's step for step (same
    exception-to-status mapping, same messages); ``None`` entries mark
    runs the caller must complete through the oracle.  Raises
    :class:`Demote` when the whole cell must — numpy absent, or a
    template assumption the planner could not see failing.
    """
    np = get_numpy()
    if np is None:
        raise Demote("numpy absent")
    from repro.analysis.invariants import evaluate_properties
    from repro.campaigns.runner import (
        STATUS_ERROR,
        STATUS_INADMISSIBLE,
        STATUS_INAPPLICABLE,
        _base_row,
        _resolve_algorithm_memo,
    )

    rows: List[Optional[Row]] = [None] * len(runs)
    viable: List[int] = []
    program: Optional[CellProgram] = None
    compiled_outcome = None
    for index, run in enumerate(runs):
        row = _base_row(run)
        row["_backend"] = "columnar-state"
        try:
            model = FaultModel(run.n, run.b, run.f)
            parameters, _config = _resolve_algorithm_memo(run.algorithm, model)
        except ValueError as exc:
            # ParameterError (a ValueError) ⇒ the bound rejects this model.
            row.update(status=STATUS_INADMISSIBLE, error=str(exc))
            rows[index] = row
            continue
        except Exception as exc:
            # Head only, exactly like the oracle: memoized rejections
            # replay with their traceback reset.
            row.update(status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}")
            rows[index] = row
            continue
        hosted = parameters.model
        if hosted.b < model.b or hosted.f < model.f:
            row.update(
                status=STATUS_INADMISSIBLE,
                error=(
                    f"{run.algorithm} hosts (b={hosted.b}, f={hosted.f}), "
                    f"grid point wants (b={model.b}, f={model.f})"
                ),
            )
            rows[index] = row
            continue
        if compiled_outcome is None:
            try:
                compiled_outcome = ("ok", compile_batch_scenario(run, model))
            except ScenarioInapplicable as exc:
                compiled_outcome = ("inapplicable", str(exc))
            except Exception:
                # Oracle fallback: traceback rows must be its own.
                compiled_outcome = ("oracle", None)
        verdict, compiled = compiled_outcome
        if verdict == "inapplicable":
            row.update(status=STATUS_INAPPLICABLE, error=compiled)
            rows[index] = row
            continue
        if verdict == "oracle":
            continue
        if program is None:
            # The planner proved crashes == 0; a schedule appearing anyway
            # means the proof is stale — trust the oracle.
            if compiled.crash_schedule is not None:
                raise Demote("crash schedule")
            program = CellProgram(np, run, parameters, compiled)
        viable.append(index)
        rows[index] = row

    if program is None:
        return rows
    results = program.execute([runs[index].seed for index in viable])
    for index, result in zip(viable, results):
        report = evaluate_properties(
            decided_values=result.pop("decided_values"),
            initial_values=program.initial_values,
            byzantine=program.context.byzantine,
            correct=program.correct,
        )
        rows[index].update(result, **report)
    return rows
