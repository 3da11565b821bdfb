"""Parallel campaign runner: expand, dispatch, isolate, collect.

:func:`execute_run` turns one :class:`~repro.engine.cell.RunSpec` into a
plain result-row dict and **never raises**: a crashing scenario produces a
``status="error"`` row (with the exception) instead of killing the campaign,
a model outside the algorithm's resilience bound an ``inadmissible`` row
(:func:`~repro.engine.cell.open_row` — the admission step every executor
shares), and a scenario the configuration cannot host an ``inapplicable``
row.

The run's environment comes entirely from
:func:`~repro.scenarios.compile.compile_scenario`: the Byzantine placement,
the crash schedule and the scheduler (either engine) are compiled from the
run's :class:`~repro.scenarios.spec.ScenarioSpec` with the per-run derived
seed — the runner no longer hand-assembles any of them, and crash scripts
execute on the timed engine too (only ``crashes > f`` stays inapplicable).

:func:`iter_groups` is the streaming primitive and its one dispatch loop,
and **the cell is the unit that travels**.  Down: whole cells are drawn from
:meth:`CampaignSpec.iter_cells` and cut into **chunks** — the unit of
dispatch: one :func:`execute_chunk` call, in this process or as one pool
future and one pickle round-trip — of
:class:`~repro.engine.cell.CellSlice`\\ s (a cell's coordinates plus
repetition indices: a chunk's bytes do not grow with
``repetitions``, and each ``RunSpec`` is built by the process that executes
it).  Up: a chunk comes back as :class:`~repro.engine.cell.GroupedRows` and
the stream yields its parts ``(row, coords)`` — ``coords`` ``None`` for one
row, else every ``(rep, run_id, seed)`` of a cell the batch kernel proved
seed-independent (or the algorithm rejects), whose row exists once.
:func:`iter_campaign` is that stream flattened to plain rows — what library
callers and :func:`run_campaign` (collect and sort) consume.  Because every
run's seed is derived from its coordinates, sorting either stream by
``run_id`` reproduces the byte-identical canonical file at any worker count
and any chunk size.

With ``lines=True`` the process that executes a chunk also serializes it
(:func:`~repro.campaigns.results.attach_lines`): a row's canonical line —
for a group, one encoding of its row that renders every line — rides back
as a volatile field and the result sink writes from it, so serialization
parallelizes with the pool and happens once per row or group.  The flush
rule: the sink flushes each part before the next is consumed, so a group
reaches the OS in one ``write`` where its rows took one each, and nothing
else about durability changes.

Runs go straight through the unified execution kernel with
``observe="metrics"``: no :class:`~repro.analysis.trace.RoundRecord`, trace
or per-round snapshot dict is ever constructed, which is what makes large
sweeps cheap.  The property columns come from the kernel's
:meth:`~repro.engine.outcome.Outcome.invariant_report`, identical under
both schedulers.

Metrics-mode rows may additionally route through the **batch kernel**
(:mod:`repro.engine.batch`): chunks are grouped by campaign cell and each
group of at least :data:`BATCH_FLOOR` runs executes as a unit (``backend=
"auto"``, the default; ``"batch"`` forces it at any size, ``"scalar"``
disables it).  The batch kernel is a pure
throughput optimization — its rows are byte-identical to the oracle's.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import replace
from itertools import groupby
from time import perf_counter, sleep
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.campaigns.results import attach_lines
from repro.campaigns.spec import CampaignSpec
from repro.engine.assembly import build_instance
from repro.engine.cell import (
    STATUS_ERROR,
    STATUS_INAPPLICABLE,
    CellSlice,
    GroupedRows,
    Row,
    RowPart,
    RunSpec,
    admit,
    cell_key,
    describe_error,
    expand_part,
    open_row,
)
from repro.engine.kernel import OBSERVE_METRICS, run_instance
from repro.scenarios.compile import ScenarioInapplicable, compile_scenario
from repro.scenarios.spec import split_values
from repro.utils.accel import get_numpy

#: Called after each completed run with ``(completed, total)``.
ProgressFn = Callable[[int, int], None]

#: Called with ``(kind, fields)`` for runner lifecycle events
#: (``chunk_dispatched``, and on worker-process death ``worker_crashed`` /
#: ``chunk_retried`` / ``pool_degraded``); the CLI forwards these to its
#: :class:`~repro.observability.events.EventLog` sidecar.
EventFn = Callable[[str, Dict[str, object]], None]

def execute_run(run: RunSpec, *, timings: bool = False) -> Row:
    """Execute one grid cell, returning its result row (never raises).

    With ``timings=True`` the row additionally carries volatile
    ``_elapsed_ms`` / ``_pid`` fields (wall duration and worker process
    id).  Volatile fields — every key starting with ``"_"`` — are stripped
    by the canonical JSONL serialization, so recording them never perturbs
    result-file bytes; they feed the events sidecar, the live progress
    line and the report's timing columns instead.
    """
    if timings:
        started = perf_counter()
        row = execute_run(run)
        row["_elapsed_ms"] = round((perf_counter() - started) * 1000, 3)
        row["_pid"] = os.getpid()
        return row
    row, admitted = open_row(run)
    if admitted is None:
        return row
    model, parameters, config = admitted

    try:
        compiled = compile_scenario(run.scenario, model, run.engine, run.seed)
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
            max_phases=compiled.max_phases(run.max_phases),
            observe=OBSERVE_METRICS,
            crash_schedule=compiled.crash_schedule,
        )
        row.update(
            decided=len(outcome.decisions),
            rounds=outcome.rounds_executed,
            # Phase counts are a lockstep metric, time-to-decision a timed
            # one; the other stays None so row schemas match the result
            # store's historical shape.
            phases=(
                outcome.phases_to_last_decision
                if run.engine == "lockstep"
                else None
            ),
            time_to_decision=outcome.last_decision_time,
            messages_sent=outcome.messages_sent,
            messages_delivered=outcome.messages_delivered,
            messages_dropped=outcome.messages_dropped,
            **outcome.invariant_report(),
        )
    except Exception as exc:
        row.update(status=STATUS_ERROR, error=describe_error(exc))
    return row


#: Default in-flight chunks per worker before dispatch pauses (the window
#: is accounted in runs: ``workers × WINDOW_PER_WORKER ×`` the largest
#: chunk dispatched so far).
WINDOW_PER_WORKER = 4

#: Upper bound on the auto-sized chunk: one future never carries more rows
#: of per-run work than this, keeping per-future result latency and memory
#: bounded.
MAX_CHUNK = 32

#: Upper bound on the runs of one cell that travel in one chunk when the
#: cell travels whole (see :func:`_travels_whole`); a larger cell is cut
#: into pieces of this many runs.
CELL_CHUNK_CAP = 256

#: Execution backends: ``auto`` batches cells at or above
#: :data:`BATCH_FLOOR` runs, ``batch`` forces the batch kernel on every
#: cell group, ``scalar`` forces the per-run oracle.
BACKENDS = ("auto", "batch", "scalar")

#: Smallest cell group the ``auto`` backend routes through the batch
#: kernel: below this, per-cell planning overhead outweighs the batching
#: win (single-repetition campaigns stay on the oracle path entirely).
BATCH_FLOOR = 4

#: How many times a campaign rebuilds its process pool after a worker
#: crash (:class:`BrokenProcessPool`) before degrading to in-process
#: execution for the rest of the run.
POOL_REBUILD_LIMIT = 3

#: How many pooled re-dispatches one chunk gets after crashes before it
#: executes in-process instead (a chunk that keeps killing workers — OOM,
#: segfaulting native code — must not crash-loop the pool forever).
CHUNK_RETRY_LIMIT = 2

#: Base pause before a pool rebuild, doubled per rebuild (capped at 1 s):
#: long enough to let a transient condition (fork storm, memory pressure)
#: clear, short enough to be invisible on a healthy run.
POOL_BACKOFF_S = 0.05


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize a backend choice: ``None`` is ``auto``."""
    if backend is None:
        backend = "auto"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    return backend


def _iter_cell_groups(runs: Sequence) -> Iterator[Sequence[RunSpec]]:
    """Split a chunk into maximal groups of consecutive same-cell runs.

    A chunk is cell slices (the dispatch loop's) or loose runs (a library
    caller's); slices are such groups already.  Among runs, repetitions
    are the innermost grid axis, so a cell's runs arrive consecutively;
    grouping only adjacent runs therefore recovers whole cells (up to
    chunk boundaries) while trivially preserving row order.
    """
    if runs and isinstance(runs[0], CellSlice):
        yield from runs
    else:
        for _key, group in groupby(runs, key=cell_key):
            yield list(group)


def execute_chunk(
    runs: Sequence,
    timings: bool = False,
    backend: Optional[str] = None,
    lines: bool = False,
) -> GroupedRows:
    """Execute a batch of runs in one worker task (one dispatch round-trip).

    Chunking amortizes the per-future submit/pickle/wakeup overhead of the
    process pool, and lets the worker-side memos (:func:`resolve_algorithm`,
    scenario compilation templates) stay warm across consecutive runs.

    Under the ``auto`` / ``batch`` backends the chunk is additionally
    grouped by campaign cell and each group executes through the batch
    kernel (:func:`repro.engine.batch.run_batch`); row contents are
    byte-identical to the scalar oracle at every backend, so the choice is
    purely a throughput knob.

    ``lines=True`` serializes the parts here, where they were produced
    (:func:`~repro.campaigns.results.attach_lines`).
    """
    backend = resolve_backend(backend)
    parts: List[RowPart] = []
    for group in _iter_cell_groups(runs):
        if backend == "scalar" or (
            backend == "auto" and len(group) < BATCH_FLOOR
        ):
            parts.extend(
                (execute_run(run, timings=timings), None) for run in group
            )
        else:
            # Imported per batch group, so a worker that only ever runs
            # scalar groups never loads the batch kernel.
            from repro.engine.batch import run_batch

            parts.extend(run_batch(group, timings=timings).parts)
    return GroupedRows(attach_lines(parts) if lines else parts)


def _auto_chunk(remaining: int, workers: int) -> int:
    """Runs per future when the caller does not fix ``chunk``.

    Large enough to amortize dispatch overhead, small enough to keep at
    least ``8 × workers`` chunks over the whole campaign (load balancing
    and progress granularity), capped at :data:`MAX_CHUNK`.
    """
    return max(1, min(MAX_CHUNK, remaining // (workers * 8)))


def _travels_whole(run: RunSpec) -> Tuple[bool, bool]:
    """Does ``run``'s cell execute as one unit rather than run by run, and
    does that unit execute at most once?

    One unit: a cell the batch planner replicates (one representative
    executes) or runs as one columnar-state array program, or whose
    algorithm rejects the model (no kernel runs at all; every row is the
    same verdict).  Fragmenting such a cell repeats its fixed cost per
    fragment, so dispatch keeps it in one chunk; a scalar-planned cell
    pays one kernel run per row and chunks by :func:`_auto_chunk`.  At
    most once: the replicated and the rejected cells — a worker process
    would have nothing to do for them.
    """
    from repro.engine.batch import MODE_REPLICATE, MODE_SCALAR, plan_for_run

    try:
        admit(run.algorithm, run.n, run.b, run.f)
    except Exception:
        return True, True
    mode = plan_for_run(run).mode
    return mode != MODE_SCALAR, mode == MODE_REPLICATE


def _iter_chunks(
    cells: Iterable[CellSlice],
    size: int,
    cell_cap: Optional[int],
    skip: Collection[int] = (),
    floor: int = BATCH_FLOOR,
) -> Iterator[Tuple[Tuple[CellSlice, ...], bool]]:
    """Cut the grid's cells into dispatch chunks of ``size`` runs.

    Runs in ``skip`` are dropped from their slice first.  With
    ``cell_cap`` set, a cut never falls inside a cell that
    :func:`_travels_whole`: it waits for the cell's end, or for
    ``cell_cap`` runs of the cell, whichever comes first.

    Each chunk comes with its verdict, true when every piece of it is a
    cell that executes at most once and has at least ``floor`` runs (what
    :func:`execute_chunk` batches).  Without ``cell_cap`` nothing is
    planned and every verdict is false.
    """
    chunk: List[CellSlice] = []
    held = 0  # runs in ``chunk``
    once = True  # the verdict on ``chunk`` so far
    for cell in cells:
        if skip:
            kept = [r for r in cell.reps if cell.first.run_id + r not in skip]
            if len(kept) < len(cell):
                cell = replace(cell, reps=kept)
        if not cell:
            continue
        whole = single = False
        if cell_cap is not None:
            if held >= size:  # the cut the last cell deferred
                yield tuple(chunk), once
                chunk, held, once = [], 0, True
            whole, single = _travels_whole(cell.first)
        while cell:
            room = cell_cap if whole else size - held
            piece, cell = cell[:room], cell[room:]
            chunk.append(piece)
            held += len(piece)
            once = once and single and len(piece) >= floor
            if len(piece) == room:
                yield tuple(chunk), once
                chunk, held, once = [], 0, True
    if chunk:
        yield tuple(chunk), once


def _chunk_runs(chunk: Tuple[CellSlice, ...]) -> int:
    return sum(map(len, chunk))


def _batchable(backend: str, repetitions: int, chunk: Optional[int]) -> bool:
    """Can any group of a grid reach the batch kernel (and so need numpy)?
    Under ``auto`` that takes groups of at least :data:`BATCH_FLOOR` runs:
    cells that large, in chunks that large (an auto-sized chunk,
    ``chunk=None``, holds a cell whole)."""
    return backend == "batch" or (
        backend == "auto" and min(repetitions, chunk or BATCH_FLOOR) >= BATCH_FLOOR
    )


def iter_groups(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    skip_run_ids: Optional[Collection[int]] = None,
    chunk: Optional[int] = None,
    timings: bool = False,
    on_event: Optional[EventFn] = None,
    backend: Optional[str] = None,
    lines: bool = False,
) -> Iterator[RowPart]:
    """Stream result parts ``(row, coords)`` as chunks complete.

    ``coords`` is ``None`` for a single row, else the ``(rep, run_id,
    seed)`` of every run the row stands for (see the module docstring).
    Parts arrive in completion order, not ``run_id`` order.

    Any id in ``skip_run_ids`` (runs a checkpoint already recorded — how
    ``--resume`` completes a campaign) is dropped from its slice without
    executing; it is asked only ``in`` and ``len``, never copied, so a
    sink's :class:`~repro.campaigns.results.LineIndex` serves as is.  The
    grid is cut into chunks of ``chunk`` runs; when ``chunk`` is ``None``
    it is auto-sized and a cell that executes as one unit travels whole,
    up to :data:`CELL_CHUNK_CAP` runs (see :func:`_travels_whole`), while
    an explicit ``chunk`` means exactly that many runs per chunk.

    Where a chunk runs is decided from the plan that cut it: a chunk of
    replicated or rejected cells (at least :data:`BATCH_FLOOR` runs each
    under ``auto``) executes at most once per cell, so it executes in this
    process, and so does every chunk at ``workers=1``.  Any other chunk
    goes to a pool of ``workers`` processes, started at the first such
    chunk — a grid without one never forks — with at most ``workers ×``
    :data:`WINDOW_PER_WORKER` ``×`` the largest chunk dispatched so far
    *runs* in flight at once (the window): completed parts are yielded via
    :func:`concurrent.futures.wait` as soon as their chunk finishes, so a
    slow cell delays at most its own chunk-mates (``chunk=1`` restores
    per-run streaming) and memory stays O(window) regardless of grid size,
    end to end (plus the sink's index, 16 bytes a grid run).  Abandoning
    the iterator mid-stream shuts the pool down (queued runs are
    cancelled, in-flight runs finish and are discarded).

    ``timings=True`` adds the volatile ``_elapsed_ms`` / ``_pid`` fields to
    each row (see :func:`execute_run`); ``on_event(kind, fields)`` receives
    runner lifecycle events (a ``chunk_dispatched`` per chunk, ``where``
    it runs: ``pool`` or ``parent``) for the CLI's events sidecar;
    ``lines=True`` has whichever process executes a chunk serialize it as
    well (the volatile :data:`~repro.campaigns.results.LINE_KEY` /
    :data:`~repro.campaigns.results.TEMPLATE_KEY` fields, which
    :class:`~repro.campaigns.results.ResultSink` writes from).

    ``backend`` selects the execution backend (see :data:`BACKENDS`;
    ``None`` is ``auto``): the batch kernel
    changes only throughput, never row bytes.

    Dispatch survives worker-process death: a killed worker surfaces as
    :class:`BrokenProcessPool`, whereupon every in-flight chunk is
    salvaged, the pool is rebuilt (up to :data:`POOL_REBUILD_LIMIT`
    times, with backoff) and the chunks are re-dispatched (each at most
    :data:`CHUNK_RETRY_LIMIT` times through a pool before executing
    in-process instead); past the rebuild limit the campaign degrades to
    in-process execution entirely.  Because every run is seeded by its
    coordinates, the recovered row stream is byte-identical (after the
    canonical ``run_id`` sort) to an undisturbed run — crashes cost
    wall-clock, never correctness.  ``worker_crashed`` /
    ``chunk_retried`` / ``pool_degraded`` events record each recovery.
    """
    if workers < 1:
        raise ValueError(f"workers must be ≥ 1, got {workers}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be ≥ 1, got {chunk}")
    backend = resolve_backend(backend)
    skip = skip_run_ids or ()

    # Whole-cell chunks pay off only where a group can batch, and a grid
    # that cannot is spared the planning.
    batchable = _batchable(backend, spec.repetitions, chunk)
    cell_cap = CELL_CHUNK_CAP if chunk is None and batchable else None
    if workers == 1:
        # Inline, a chunk is what buffers before rows stream out: nothing
        # when no cell can batch, else up to MAX_CHUNK runs (or a cell).
        size = chunk or (1 if cell_cap is None else MAX_CHUNK)
    else:
        size = chunk or _auto_chunk(spec.total_runs - len(skip), workers)
    limit = workers * WINDOW_PER_WORKER * size
    pool: Optional[ProcessPoolExecutor] = None
    spawn = workers > 1  # False once the campaign runs in-process for good
    rebuilds = 0
    try:
        # future → (the chunk's runs, crash-retry attempt).  Keeping the
        # runs alongside the future is what makes a worker crash
        # recoverable: the chunk is simply dispatched again.
        pending: Dict[object, Tuple[Tuple[CellSlice, ...], int]] = {}
        inflight = 0

        def emit(kind: str, fields: Dict[str, object]) -> None:
            if on_event is not None:
                on_event(kind, fields)

        def dispatch(
            chunk_runs: Tuple[CellSlice, ...], attempt: int, here: bool = False
        ) -> Iterator[RowPart]:
            """Hand one chunk to the pool (parts come back through
            :func:`drain`), or execute it in-process and yield its parts
            directly: a chunk kept ``here``, or any once the pool is
            degraded or the chunk has exhausted its crash retries.  Row
            contents are identical on either path: runs are seeded by
            their coordinates."""
            nonlocal inflight
            pooled = not here and pool is not None and attempt <= CHUNK_RETRY_LIMIT
            runs = _chunk_runs(chunk_runs)
            if attempt > 0:
                emit(
                    "chunk_retried",
                    {
                        "runs": runs,
                        "attempt": attempt,
                        "mode": "pool" if pooled else "inline",
                    },
                )
            if pooled:
                try:
                    future = pool.submit(
                        execute_chunk, chunk_runs, timings, backend, lines
                    )
                except BrokenProcessPool as exc:
                    # The pool died between drains; recover() re-enters
                    # dispatch with attempt+1, so this cannot loop
                    # unboundedly (attempt eventually exceeds the limit).
                    yield from recover(exc, (chunk_runs, attempt))
                    return
                pending[future] = (chunk_runs, attempt)
                inflight += runs
            if attempt == 0:
                emit(
                    "chunk_dispatched",
                    {"runs": runs, "where": "pool" if pooled else "parent"},
                )
            if not pooled:
                yield from execute_chunk(chunk_runs, timings, backend, lines).parts

        def recover(
            exc: BaseException, *extra: Tuple[Tuple[CellSlice, ...], int]
        ) -> Iterator[RowPart]:
            """A worker process died.  Salvage every in-flight chunk,
            rebuild the pool (bounded retries with backoff, then degrade
            to in-process execution) and re-dispatch the survivors —
            the row stream continues as if nothing happened."""
            nonlocal pool, spawn, rebuilds, inflight
            # One dead worker breaks the whole executor: every pending
            # future settles promptly (result or BrokenProcessPool), so
            # this wait is short.  Chunks that finished before the crash
            # keep their rows; the rest are re-dispatched.
            if pending:
                wait(list(pending))
            salvaged = list(extra)
            finished: List[RowPart] = []
            for future, (chunk_runs, attempt) in pending.items():
                inflight -= _chunk_runs(chunk_runs)
                try:
                    finished.extend(future.result().parts)
                except BaseException:
                    salvaged.append((chunk_runs, attempt))
            pending.clear()
            emit(
                "worker_crashed",
                {
                    "chunks": len(salvaged),
                    "runs": sum(_chunk_runs(c) for c, _ in salvaged),
                    "error": str(exc).split("\n")[0],
                    "rebuilds": rebuilds,
                },
            )
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            if rebuilds < POOL_REBUILD_LIMIT:
                rebuilds += 1
                sleep(min(POOL_BACKOFF_S * (2 ** (rebuilds - 1)), 1.0))
                pool = ProcessPoolExecutor(max_workers=workers)
            else:
                pool, spawn = None, False
                emit("pool_degraded", {"rebuilds": rebuilds})
            yield from finished
            for chunk_runs, attempt in salvaged:
                yield from dispatch(chunk_runs, attempt + 1)

        def drain() -> Iterator[RowPart]:
            nonlocal inflight
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                if future not in pending:
                    continue  # salvaged by an earlier recover() this loop
                chunk_runs, attempt = pending.pop(future)
                inflight -= _chunk_runs(chunk_runs)
                try:
                    rows = future.result()
                except BrokenProcessPool as exc:
                    yield from recover(exc, (chunk_runs, attempt))
                    continue
                yield from rows.parts

        floor = 1 if backend == "batch" else BATCH_FLOOR
        chunks = _iter_chunks(spec.iter_cells(), size, cell_cap, skip, floor)
        for chunk_runs, here in chunks:
            if spawn and pool is None and not here:
                # Imported here, not at module load: the pool brings in
                # ``multiprocessing`` and ``logging``, which a campaign
                # that never forks does not use.  Only a batch group loads
                # numpy: loaded before the fork, it is imported once, and
                # a worker's RSS counts only the inherited pages it touches.
                if batchable:
                    get_numpy()
                from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
                from concurrent.futures.process import BrokenProcessPool

                pool = ProcessPoolExecutor(max_workers=workers)
            yield from dispatch(chunk_runs, 0, here)
            # Sized from what is actually dispatched: whole cells are
            # larger than ``size``, and the pool should still hold
            # WINDOW_PER_WORKER of them per worker.
            limit = max(
                limit, workers * WINDOW_PER_WORKER * _chunk_runs(chunk_runs)
            )
            while inflight >= limit:
                yield from drain()
        while pending:
            yield from drain()
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def iter_campaign(
    spec: CampaignSpec,
    *,
    progress: Optional[ProgressFn] = None,
    skip_run_ids: Optional[Collection[int]] = None,
    **options: object,
) -> Iterator[Row]:
    """Stream result rows as runs complete (completion order, not run_id).

    The flatten of :func:`iter_groups`, whose ``options`` it forwards: a
    group arrives as the rows it stands for.  ``progress(completed,
    total)`` is called per row and counts skipped runs as completed.
    """
    completed = len(skip_run_ids or ())
    groups = iter_groups(spec, skip_run_ids=skip_run_ids, **options)
    with closing(groups):
        for part in groups:
            for row in expand_part(*part):
                completed += 1
                if progress is not None:
                    progress(completed, spec.total_runs)
                yield row


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
    chunk: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[Row]:
    """Execute every run of ``spec`` and return rows ordered by ``run_id``.

    The collect-and-sort wrapper over :func:`iter_campaign` — use the
    generator directly (with a :class:`~repro.campaigns.results.ResultSink`)
    when the grid is too large to hold in memory.
    """
    rows = list(
        iter_campaign(
            spec,
            workers=workers,
            progress=progress,
            chunk=chunk,
            backend=backend,
        )
    )
    rows.sort(key=lambda row: row["run_id"])
    return rows
