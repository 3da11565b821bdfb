"""Command-line interface: run paper experiments from a shell.

Usage examples::

    python -m repro.cli list
    python -m repro.cli table1
    python -m repro.cli scenario list
    python -m repro.cli scenario run partition_heal --algorithm pbft --n 4
    python -m repro.cli scenario run worst_case --algorithm class-3 --n 7 --engine timed
    python -m repro.cli scenario run fault-free --algorithm ben-or --n 5 --seed 3
    python -m repro.cli profile worst_case --algorithm pbft --n 4 --b 1
    python -m repro.cli campaign list
    python -m repro.cli campaign run grid-demo --workers 4
    python -m repro.cli campaign run fig2-flv-class2
    python -m repro.cli campaign run myspec.json --out results.jsonl
    python -m repro.cli campaign run myspec.json --out results.jsonl --resume
    python -m repro.cli campaign run grid-demo --events events.jsonl --progress
    python -m repro.cli campaign report results.jsonl
    python -m repro.cli campaign report results.jsonl --events events.jsonl
    python -m repro.cli fuzz run --seed 7 --budget 200 --out findings.jsonl
    python -m repro.cli fuzz run --seed 7 --budget 200 --out findings.jsonl --resume
    python -m repro.cli fuzz replay findings.jsonl --index 16 --shrunk
    python -m repro.cli fuzz shrink findings.jsonl --index 16
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from repro.algorithms import ALGORITHM_BUILDERS
from repro.analysis.reporting import format_table
from repro.core.classification import AlgorithmClass
from repro.engine.kernel import DEFAULT_PHASES
from repro.engine.scheduler import ENGINES
from repro.faults.registry import STRATEGY_REGISTRY
from repro.utils.jsonl import checkpoint_path


def _cmd_list(args: argparse.Namespace) -> int:
    print("Algorithms:")
    for name in sorted(ALGORITHM_BUILDERS):
        print(f"  {name}")
    print("Byzantine strategies:")
    for name in sorted(STRATEGY_REGISTRY):
        print(f"  {name}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for cls in AlgorithmClass:
        row = cls.row
        rows.append(
            [
                cls.value,
                str(row.flag),
                f"n>{row.n_bound[0]}b+{row.n_bound[1]}f",
                "/".join(row.state),
                row.rounds_per_phase,
                "; ".join(row.examples),
            ]
        )
    print(
        format_table(
            ["class", "FLAG", "n bound", "state", "rounds/phase", "examples"],
            rows,
        )
    )
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios

    print("Registered scenarios:")
    for spec in list_scenarios():
        print(f"  {spec.name:<18} {spec.describe_fault()}")
    return 0


def _admit_cell(args: argparse.Namespace, scenario: str):
    """``(scenario spec, parameters, config)`` for a single-cell command,
    or ``None`` after telling stderr why there is none."""
    from repro.engine.cell import admit, rejection_message
    from repro.scenarios import get_scenario

    try:
        spec = get_scenario(scenario)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None
    try:
        _model, parameters, config = admit(
            args.algorithm, args.n, args.b, args.f
        )
    except (KeyError, ValueError) as exc:
        print(
            f"cannot build {args.algorithm}: {rejection_message(exc)}",
            file=sys.stderr,
        )
        return None
    return spec, parameters, config


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioInapplicable, run_scenario

    cell = _admit_cell(args, args.name)
    if cell is None:
        return 2
    spec, parameters, config = cell
    try:
        outcome = run_scenario(
            spec,
            parameters,
            engine=args.engine,
            rng=args.seed,
            config=config,
            max_phases=args.max_phases,
        )
    except ScenarioInapplicable as exc:
        print(f"scenario inapplicable: {exc}", file=sys.stderr)
        return 2
    decided = {
        pid: d.value for pid, d in sorted(outcome.decisions.items())
    }
    print(
        f"{spec.name} [{spec.describe_fault()}] on {args.algorithm} "
        f"n={args.n} b={args.b} f={args.f} ({args.engine}, seed {args.seed})"
    )
    print(f"  decided     : {decided}")
    print(f"  agreement   : {outcome.agreement_holds}")
    print(f"  termination : {outcome.all_correct_decided}")
    print(f"  rounds      : {outcome.rounds_executed}")
    print(f"  phases      : {outcome.phases_to_last_decision}")
    print(f"  messages    : {outcome.messages_sent} sent, "
          f"{outcome.messages_delivered} delivered, "
          f"{outcome.messages_dropped} dropped")
    if outcome.simulated_time is not None:
        print(f"  time        : {outcome.simulated_time:g} "
              f"(last decision {outcome.last_decision_time})")
    return 0 if outcome.agreement_holds else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_scenario_list,
        "run": _cmd_scenario_run,
    }
    return handlers[args.scenario_command](args)


def _cmd_profile_batch(args: argparse.Namespace) -> int:
    """``repro profile --batch B``: one cell through the batch kernel.

    Expands B campaign-style repetitions of the profiled cell (same
    coordinate-derived seeds a real campaign would use), executes them as
    one batch with telemetry bound, and prints the plan, the per-tier
    ``batch.*`` counters and the span breakdown — the quickest way to see
    which tier a cell actually runs on, what demoted it
    (``batch.demoted[reason]``) and where its time goes.
    """
    from collections import Counter
    from time import perf_counter

    from repro.campaigns import CampaignSpec
    from repro.engine.batch import plan_for_run, run_batch
    from repro.observability import Telemetry, format_phase_table

    if _admit_cell(args, args.scenario) is None:
        return 2
    try:
        spec = CampaignSpec(
            name=f"profile-{args.scenario}",
            algorithms=(args.algorithm,),
            models=((args.n, args.b, args.f),),
            engines=(args.engine,),
            scenarios=(args.scenario,),
            repetitions=args.batch,
            seed=args.seed,
            max_phases=args.max_phases,
        )
        runs = list(spec.iter_runs())
    except (KeyError, ValueError) as exc:
        print(f"cannot expand cell: {exc}", file=sys.stderr)
        return 2
    plan = plan_for_run(runs[0])
    telemetry = Telemetry()
    wall_start = perf_counter()
    rows = run_batch(runs, telemetry=telemetry)
    wall = perf_counter() - wall_start
    statuses = Counter(str(row.get("status")) for row in rows)
    backends = Counter(str(row.get("_backend")) for row in rows)
    print(
        f"batch profile: {args.scenario} on {args.algorithm} n={args.n} "
        f"b={args.b} f={args.f} ({args.engine}, seed {args.seed}, "
        f"{args.batch} run(s))"
    )
    print(f"  plan: {plan.mode} — {plan.reason}")
    print(
        "  rows: "
        + "  ".join(f"{name} {count}" for name, count in sorted(backends.items()))
        + "  |  status: "
        + "  ".join(f"{name} {count}" for name, count in sorted(statuses.items()))
    )
    counters = {
        name: value
        for name, value in sorted(telemetry.counters.items())
        if name.startswith("batch.")
    }
    if counters:
        print(
            "  counters: "
            + "  ".join(f"{name}={value}" for name, value in counters.items())
        )
    print()
    print(format_phase_table(telemetry, wall_seconds=wall))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.observability import Telemetry, format_phase_table
    from repro.scenarios import ScenarioInapplicable, run_scenario

    if args.batch is not None:
        return _cmd_profile_batch(args)
    telemetry = Telemetry()
    wall_start = perf_counter()
    # Setup and analysis get spans of their own so the phase table accounts
    # for (nearly) the whole command wall, not just the engine's share.
    with telemetry.span("setup.resolve"):
        cell = _admit_cell(args, args.scenario)
    if cell is None:
        return 2
    spec, parameters, config = cell
    outcome = None
    for repeat in range(args.repeat):
        # engine.run wraps scenario compilation + instance build + the
        # kernel loop; the kernel's own spans nest inside it, so its self
        # time is exactly the non-kernel glue.
        with telemetry.span("engine.run"):
            try:
                outcome = run_scenario(
                    spec,
                    parameters,
                    engine=args.engine,
                    rng=args.seed + repeat,
                    config=config,
                    observe="profile",
                    max_phases=args.max_phases,
                    telemetry=telemetry,
                )
            except ScenarioInapplicable as exc:
                print(f"scenario inapplicable: {exc}", file=sys.stderr)
                return 2
    with telemetry.span("analysis.invariants"):
        report = outcome.invariant_report()
    wall = perf_counter() - wall_start
    print(
        f"profile: {spec.name} on {args.algorithm} n={args.n} b={args.b} "
        f"f={args.f} ({args.engine}, seed {args.seed}, "
        f"{args.repeat} run(s))"
    )
    print(
        f"  agreement {report.get('agreement')}  "
        f"termination {report.get('termination')}  "
        f"rounds {outcome.rounds_executed}  "
        f"messages {outcome.messages_sent}"
    )
    print()
    print(format_phase_table(telemetry, wall_seconds=wall))
    return 0


def _serve_config(args: argparse.Namespace):
    from repro.smr import ServeConfig, WorkloadSpec

    config = ServeConfig(
        algorithm=args.algorithm,
        n=args.n,
        b=args.b,
        f=args.f,
        scenario=args.scenario,
        engine=args.engine,
        batch=args.batch,
        depth=args.depth,
        seed=args.seed,
        max_phases=args.max_phases,
    )
    workload = WorkloadSpec(
        clients=args.clients,
        rate=args.rate,
        duration=args.duration,
        arrival=args.arrival,
        seed=args.seed,
    )
    return config, workload


def _cmd_smr_serve(args: argparse.Namespace) -> int:
    import json

    from repro.engine.cell import rejection_message
    from repro.scenarios import ScenarioInapplicable
    from repro.smr import run_serve

    config, workload = _serve_config(args)
    try:
        report = run_serve(config, workload)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, ScenarioInapplicable):
            print(f"scenario inapplicable: {exc}", file=sys.stderr)
        else:
            print(f"cannot serve: {rejection_message(exc)}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_row(), sort_keys=True))
        return 0 if report.digests_agree and not report.stalled else 1
    print(
        f"serve: {config.algorithm} n={config.n} b={config.b} f={config.f} "
        f"[{report.scenario}] ({config.engine}, seed {config.seed})"
    )
    print(
        f"  load        : {workload.arrival} rate {workload.rate:g}/t "
        f"x {workload.duration:g}t over {workload.clients} client(s)"
    )
    print(f"  pipeline    : batch ≤ {config.batch}, depth {config.depth}")
    print(
        f"  commands    : {report.offered} offered, "
        f"{report.committed_commands} committed in "
        f"{report.slots_committed} slot(s) "
        f"(mean batch {report.mean_batch_size:.2f})"
    )
    print(
        f"  consensus   : {report.retries} retried, "
        f"{report.rejected} rejected"
        + ("  ** STALLED **" if report.stalled else "")
    )
    ran = report.telemetry.counters.get("smr.instances_run", 0)
    cloned = report.telemetry.counters.get("smr.slots_replicated", 0)
    print(
        f"  tier        : {report.tier} "
        f"({ran:,} instance{'s' * (ran != 1)} run"
        + (f", {cloned:,} slots replicated)" if cloned else ")")
    )
    print(
        f"  state       : digests agree {report.digests_agree} "
        f"(log {report.log_digest[:16]})"
    )
    print(
        f"  throughput  : {report.throughput:,.0f} cmd/s wall "
        f"({report.simulated_duration:g} simulated time units)"
    )
    if report.latency:
        lat = report.latency
        print(
            f"  latency     : p50 {lat['p50']:.3f}  p95 {lat['p95']:.3f}  "
            f"p99 {lat['p99']:.3f}  mean {lat['mean']:.3f}  "
            f"max {lat['max']:.3f} (simulated units)"
        )
        split = []
        for part in ("queue wait", "consensus", "apply wait"):
            stats = report.telemetry.histogram_stats(
                "smr.latency." + part.replace(" ", "_")
            )
            split.append(f"{part} {stats['p50']:.3f}/{stats['p99']:.3f}")
        print("  latency split: " + "  ".join(split) + " (p50/p99)")
    return 0 if report.digests_agree and not report.stalled else 1


def _cmd_smr_sweep(args: argparse.Namespace) -> int:
    from repro.campaigns.results import write_rows
    from repro.engine.cell import admit, rejection_message
    from repro.scenarios import get_scenario
    from repro.smr import sweep_serve
    from repro.utils.jsonl import unwritable

    config, workload = _serve_config(args)
    scenarios = args.scenarios
    # A typo is a usage error, not a table of inapplicable cells; a model
    # that cannot host the algorithm or a scenario still makes its rows.
    try:
        for name in scenarios or ():
            get_scenario(name)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        admit(config.algorithm, config.n, config.b, config.f)
    except KeyError as exc:
        print(f"cannot serve: {rejection_message(exc)}", file=sys.stderr)
        return 2
    except ValueError:
        pass  # the model's verdict: every cell reports it in its row
    # Probed before the first cell runs, not after the last.
    reason = unwritable(Path(args.out)) if args.out else None
    if reason is not None:
        print(f"cannot write {args.out}: {reason}", file=sys.stderr)
        return 2
    rows = sweep_serve(config, workload, rates=args.rates, scenarios=scenarios)
    if args.out:
        write_rows(args.out, rows)
    headers = [
        "cell", "status", "offered", "committed", "slots",
        "retries", "p50", "p99", "digests",
    ]
    table_rows = []
    for row in rows:
        if row["status"] == "inapplicable":
            table_rows.append(
                [row["cell"], row["status"]] + ["-"] * 7
            )
            continue
        table_rows.append([
            row["cell"],
            row["status"],
            row["offered"],
            row["committed_commands"],
            row["slots_committed"],
            row["retries"],
            f"{row['latency_p50']:.3f}" if row["latency_p50"] is not None else "-",
            f"{row['latency_p99']:.3f}" if row["latency_p99"] is not None else "-",
            "ok" if row["digests_agree"] else "DIVERGED",
        ])
    print(format_table(headers, table_rows))
    for row in rows:
        if row["status"] == "inapplicable":
            print(f"{row['cell']}: {row['detail']}", file=sys.stderr)
    if args.out:
        print(f"\nwrote {len(rows)} row(s) to {args.out}")
    bad = [
        row for row in rows
        if row["status"] == "stalled"
        or (row["status"] == "ok" and not row["digests_agree"])
    ]
    return 1 if bad else 0


def _cmd_smr(args: argparse.Namespace) -> int:
    handlers = {
        "serve": _cmd_smr_serve,
        "sweep": _cmd_smr_sweep,
    }
    return handlers[args.smr_command](args)


def _load_campaign(source: str):
    """A campaign spec from a file path or a built-in name."""
    from repro.campaigns import BUILTIN_CAMPAIGNS, load_spec

    if source in BUILTIN_CAMPAIGNS:
        return BUILTIN_CAMPAIGNS[source]
    path = Path(source)
    if path.exists():
        try:
            return load_spec(path)
        except (ValueError, TypeError, OSError) as exc:
            print(f"cannot load campaign spec {source}: {exc}", file=sys.stderr)
            return None
    print(
        f"no such campaign: {source!r} is neither a spec file nor a "
        f"built-in ({', '.join(sorted(BUILTIN_CAMPAIGNS))})",
        file=sys.stderr,
    )
    return None


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    from repro.campaigns import BUILTIN_CAMPAIGNS

    print("Built-in campaigns:")
    for name, spec in sorted(BUILTIN_CAMPAIGNS.items()):
        print(f"  {name:<18} {spec.total_runs:>4} runs")
    return 0


#: Exit code of a resumable command whose ``--stop-after`` kept its state.
EXIT_INTERRUPTED = 3


#: A ``worker_heartbeat`` event is emitted every this many rows per worker.
HEARTBEAT_EVERY = 20


class _Resumable(NamedTuple):
    """The resume / stop / interrupt contract ``campaign run`` and ``fuzz
    run`` share: one checkpoint, ``<out>.partial``, one message shape per
    outcome, and exit 2 (refused), 3 (``--stop-after``) or 130 (Ctrl-C),
    the last two keeping the checkpoint."""

    out: Path
    unit: str  # what one session executes

    @property
    def checkpoint(self) -> Path:
        """The file ``--resume`` continues from."""
        return checkpoint_path(self.out)

    def recover(self, resume: bool, read: Callable[[Path], object]) -> Tuple[object, Optional[int]]:
        """``(what read(checkpoint) recovered, None)`` on ``--resume``,
        ``(None, None)`` on a fresh run, else ``(None, 2)`` after one line:
        ``--resume`` and the checkpoint disagree, or ``read`` refuses the
        checkpoint (``ValueError``).  Asked before anything is printed or
        written, so a refused checkpoint is left untouched."""
        if not resume:
            if not self.checkpoint.exists():
                return None, None
            reason = (
                f"checkpoint {self.checkpoint} already exists; pass --resume "
                "to complete it or delete it to start over"
            )
        elif not self.checkpoint.exists():
            reason = f"nothing to resume: no checkpoint at {self.checkpoint}"
            if self.out.exists():
                reason += f" ({self.out} exists — already complete?)"
        else:
            try:
                return read(self.checkpoint), None
            except ValueError as exc:
                reason = f"cannot resume: {exc}; delete the checkpoint to start over"
        print(reason, file=sys.stderr)
        return None, 2

    def ended(self, done: int, stopped: bool) -> int:
        """Report a session cut short, its checkpoint kept for ``--resume``."""
        print(
            ("stopped" if stopped else "\ninterrupted")
            + f" after {done} {self.unit}(s); checkpoint retained at "
            f"{self.checkpoint} — rerun with --resume to complete",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED if stopped else 130


def _sigterm_interrupts(command):
    """``command`` with SIGTERM raising ``KeyboardInterrupt``, so a killed
    run ends like a Ctrl-C'd one (exit 130, state kept, pool shut down); a
    forked pool worker inheriting the handler still dies of the signal."""

    def run(args: argparse.Namespace) -> int:
        parent = os.getpid()

        def interrupt(signum, _frame):
            if os.getpid() != parent:
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, interrupt)
        try:
            return command(args)
        finally:
            signal.signal(signal.SIGTERM, previous)

    return run


@_sigterm_interrupts
def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace
    from time import perf_counter

    from repro.campaigns import SummaryFold, iter_groups
    from repro.campaigns.results import (
        LineIndex,
        ResultSink,
        finalize_checkpoint,
        validate_resume,
    )
    from repro.observability import EventLog, ProgressLine
    from repro.utils.jsonl import unwritable

    spec = _load_campaign(args.spec)
    if spec is None:
        return 2
    backend = args.backend
    if args.seed is not None:
        spec = dc_replace(spec, seed=args.seed)
    out = Path(args.out or f"{spec.name}.results.jsonl")
    session = _Resumable(out, "run")
    checkpoint = session.checkpoint
    if args.events and Path(args.events).resolve() in (
        out.resolve(),
        checkpoint.resolve(),
    ):
        print(
            f"cannot write {args.events}: --events must not name the "
            f"result file {out} or its checkpoint",
            file=sys.stderr,
        )
        return 2

    # Every count — the exit code, the report, the progress line and the
    # events — reads one fold, fed in the pass that first holds each row as
    # a dict: the run loop for rows executed now, the resume validation
    # scan for rows an earlier session recorded.
    fold = SummaryFold()

    # A checkpoint started under another spec, or a corrupt one, is
    # refused untouched.  Only then is a torn final line truncated so new
    # appends start on a clean row.
    recovered, refused = session.recover(
        args.resume, lambda path: validate_resume(spec, path, on_row=fold.add)
    )
    if refused is not None:
        return refused
    # The recorded lines: resume skips them.
    index, intact = recovered or (LineIndex(spec.total_runs), 0)
    skipped = len(index)
    # What earlier sessions recorded: the progress line and the events
    # report only this session's share of the fold's totals.
    recorded_statuses = fold.statuses.copy()
    recorded_backends = fold.backends.copy()

    # Both output targets are probed before anything is truncated, created
    # or executed: the checkpoint lives beside ``out``, so one probe covers
    # the streaming appends and the final rename.
    for target in [out] + ([Path(args.events)] if args.events else []):
        reason = unwritable(target)
        if reason is not None:
            print(f"cannot write {target}: {reason}", file=sys.stderr)
            return 2
    if args.resume:
        os.truncate(checkpoint, intact)

    total = spec.total_runs
    step = max(1, total // 10)

    if args.events and not args.resume:
        # A fresh campaign starts a fresh flight recorder; only --resume
        # appends to the existing event history.
        Path(args.events).unlink(missing_ok=True)
    events = EventLog(args.events) if args.events else None
    progress_line = (
        ProgressLine(spec.name, total, stream=sys.stderr)
        if args.progress
        else None
    )
    # A quiet run with no events or progress line touches a group once,
    # never its rows.
    per_row = events is not None or progress_line is not None or not args.quiet

    def session_rows(status: str) -> int:
        return fold.statuses[status] - recorded_statuses[status]

    def progress(completed: int, _total: int) -> None:
        if progress_line is not None:
            progress_line.render(
                completed, session_rows("error"), session_rows("inadmissible")
            )
        elif not args.quiet and (completed % step == 0 or completed == _total):
            print(f"  {completed}/{_total} runs", file=sys.stderr)

    print(
        f"campaign {spec.name!r}: {total} runs"
        + (f" ({skipped} already recorded)" if skipped else "")
        + f", {args.workers} worker(s), seed {spec.seed}, "
        + f"backend {backend}",
        file=sys.stderr,
    )
    executed = 0
    interrupted = False
    stop_after = args.stop_after
    started_at = perf_counter()
    worker_rows: dict = {}

    def on_event(kind: str, fields: dict) -> None:
        events.emit(kind, **fields)

    if events is not None:
        events.emit(
            "campaign_started",
            campaign=spec.name,
            total_runs=total,
            workers=args.workers,
            chunk=args.chunk,
            seed=spec.seed,
            backend=backend,
            skipped=skipped,
            resume=bool(args.resume),
        )
        if skipped:
            events.emit("resume_skipped", rows=skipped)
    try:
        try:
            # A first session starts the checkpoint with the spec it runs.
            header = None if args.resume else spec.to_mapping()
            with ResultSink(checkpoint, index, header) as sink:
                for row, coords in iter_groups(
                    spec,
                    workers=args.workers,
                    skip_run_ids=index if skipped else None,
                    chunk=args.chunk,
                    timings=True,
                    on_event=on_event if events is not None else None,
                    backend=backend,
                    lines=True,
                ):
                    if coords is not None and stop_after is not None:
                        # A stop inside a group cuts it at exactly N rows.
                        coords = coords[: stop_after - executed]
                    count = 1 if coords is None else len(coords)
                    sink.append(row, coords)
                    fold.add(row, count)
                    if not per_row:
                        executed += count
                        run_ids = ()
                    elif coords is None:
                        run_ids = (row.get("run_id"),)
                    else:
                        run_ids = [coord[1] for coord in coords]
                    # What is per row by contract: row_completed events,
                    # heartbeats and the progress display.
                    for run_id in run_ids:
                        executed += 1
                        if events is not None:
                            events.emit(
                                "row_completed",
                                run_id=run_id,
                                status=row.get("status"),
                                backend=row.get("_backend", "scalar"),
                                duration_ms=row.get("_elapsed_ms"),
                                pid=row.get("_pid"),
                            )
                            pid = row.get("_pid")
                            if isinstance(pid, int):
                                rows = worker_rows[pid] = worker_rows.get(pid, 0) + 1
                                if rows % HEARTBEAT_EVERY == 0:
                                    elapsed = perf_counter() - started_at
                                    events.emit(
                                        "worker_heartbeat",
                                        pid=pid,
                                        rows=rows,
                                        rows_per_s=(
                                            round(rows / elapsed, 3)
                                            if elapsed > 0
                                            else None
                                        ),
                                    )
                            if executed % step == 0 or executed == total - skipped:
                                events.emit("checkpoint_flushed", rows=executed)
                        progress(skipped + executed, total)
                    if stop_after is not None and executed >= stop_after:
                        interrupted = True
                        break
        except KeyboardInterrupt:
            interrupted = True
            return session.ended(executed, stopped=False)
        if interrupted:
            return session.ended(executed, stopped=True)
    finally:
        if progress_line is not None and not interrupted:
            progress_line.finish(
                skipped + executed,
                session_rows("error"),
                session_rows("inadmissible"),
            )
        if events is not None:
            backends = fold.backends - recorded_backends
            events.emit(
                "campaign_finished",
                rows=executed,
                errors=session_rows("error"),
                elapsed_s=round(perf_counter() - started_at, 6),
                interrupted=interrupted,
                backends={name: backends[name] for name in sorted(backends)},
            )
            events.close()

    finalize_checkpoint(checkpoint, out, sink.index)
    print(f"wrote {total} rows to {out}", file=sys.stderr)
    if args.resume:
        # Always reported, so a fully-recorded checkpoint resumes loudly
        # ("N rows skipped, 0 executed") instead of exiting near-silently.
        print(
            f"resumed: {skipped} rows skipped, {executed} executed",
            file=sys.stderr,
        )
    if not args.no_report:
        _print_report(fold)
    errors = fold.statuses["error"]
    if errors or fold.unsafe:
        print(
            f"{errors} error row(s), {fold.unsafe} safety violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _print_report(fold) -> None:
    """A fold's per-cell table and, when its rows are timed, slowest cells."""
    from repro.campaigns import format_report, format_slowest_cells

    summaries = fold.summaries()
    print(format_report(summaries, fold.group_keys))
    ranking = format_slowest_cells(summaries, fold.group_keys)
    if ranking:
        print(ranking)


def _cmd_campaign_plan(args: argparse.Namespace) -> int:
    """``repro campaign plan``: per-cell tier classification, no execution.

    Expands the spec's grid, groups runs into campaign cells, and prints
    the batch tier the planner assigns each cell together with its reason
    — the quickest way to see how much of a campaign will replicate, run
    as one array program, or fall back to the per-run oracle, before
    spending any cycles on it.  ``--explain`` adds, under every scalar
    cell, each clause that keeps it off the columnar-state tier.
    """
    from collections import Counter

    from repro.engine.batch import (
        MODE_SCALAR,
        cell_key,
        explain_for_run,
        plan_for_run,
    )

    spec = _load_campaign(args.spec)
    if spec is None:
        return 2
    cells = {}  # cell key -> (representative run, reps)
    for cell in spec.iter_cells():
        cells.setdefault(cell_key(cell.first), [cell.first, 0])[1] += len(cell)
    print(f"campaign {spec.name!r}: {spec.total_runs} runs, {len(cells)} cells")
    tier_counts: Counter = Counter()
    header = (
        f"  {'algorithm':<14} {'model':<10} {'engine':<9} "
        f"{'scenario':<18} {'reps':>4}  {'tier':<15} reason"
    )
    print(header)
    for run, reps in cells.values():
        plan = plan_for_run(run)
        tier_counts[plan.mode] += reps
        model = f"({run.n},{run.b},{run.f})"
        print(
            f"  {run.algorithm:<14} {model:<10} {run.engine:<9} "
            f"{run.scenario.name:<18} {reps:>4}  {plan.mode:<15} {plan.reason}"
        )
        if args.explain and plan.mode == MODE_SCALAR:
            for clause in explain_for_run(run):
                print(f"      - {clause}")
    print(
        "  tiers: "
        + "  ".join(
            f"{mode} {count}" for mode, count in sorted(tier_counts.items())
        )
    )
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaigns import DEFAULT_GROUP_KEYS, SummaryFold
    from repro.campaigns.results import iter_rows

    keys = args.group_by or DEFAULT_GROUP_KEYS
    # Wall durations never enter the canonical JSONL (they are volatile
    # and nondeterministic); --events joins them back from the sidecar's
    # row_completed events so the report can grow its timing columns.
    durations: dict = {}
    if args.events:
        from repro.observability import load_row_durations

        try:
            durations = load_row_durations(args.events)
        except (OSError, ValueError) as exc:
            print(f"cannot read events {args.events}: {exc}", file=sys.stderr)
            return 2
    # One streaming pass: every row folds into its cell immediately, so
    # report memory scales with cells, not grid rows.  A group-by key is
    # valid if *any* row carries it; the field union is only accumulated
    # while some key is still unseen (one row's worth of work in practice).
    fold = SummaryFold(keys)
    missing = set(keys)
    fields: set = set()
    empty = True
    try:
        for row in iter_rows(args.results):
            empty = False
            if missing:
                fields |= row.keys()
                missing -= row.keys()
            if durations:
                duration = durations.get(row.get("run_id"))
                if duration is not None:
                    row["_elapsed_ms"] = duration
            fold.add(row)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.results}: {exc}", file=sys.stderr)
        return 2
    if missing and not empty:
        unknown = [key for key in keys if key in missing]
        print(
            f"unknown --group-by field(s) {', '.join(unknown)}; "
            f"row fields: {', '.join(sorted(fields))}",
            file=sys.stderr,
        )
        return 2
    _print_report(fold)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_campaign_list,
        "run": _cmd_campaign_run,
        "plan": _cmd_campaign_plan,
        "report": _cmd_campaign_report,
    }
    return handlers[args.campaign_command](args)


def _fuzz_space(args: argparse.Namespace):
    """Build a :class:`FuzzSpace` from ``fuzz run`` arguments (or exit 2)."""
    from repro.fuzz import DEFAULT_ALGORITHMS, DEFAULT_STRATEGIES, FuzzSpace

    models = None
    if args.models:
        models = []
        for text in args.models:
            parts = text.split(",")
            if len(parts) != 3:
                print(
                    f"bad --models entry {text!r}: expected N,B,F",
                    file=sys.stderr,
                )
                return None
            try:
                models.append(tuple(int(p) for p in parts))
            except ValueError:
                print(
                    f"bad --models entry {text!r}: expected three integers",
                    file=sys.stderr,
                )
                return None
        models = tuple(models)
    try:
        return FuzzSpace(
            algorithms=(
                tuple(args.algorithms) if args.algorithms else DEFAULT_ALGORITHMS
            ),
            engines=tuple(args.engines) if args.engines else ENGINES,
            models=models,
            strategies=(
                tuple(args.strategies) if args.strategies else DEFAULT_STRATEGIES
            ),
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None


@_sigterm_interrupts
def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzConfig, read_checkpoint, run_fuzz, state_header
    from repro.utils.jsonl import unwritable

    space = _fuzz_space(args)
    if space is None:
        return 2
    try:
        config = FuzzConfig(
            space=space,
            seed=args.seed,
            budget=args.budget,
            over_bound=args.over_bound,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    out = Path(args.out)
    session = _Resumable(out, "candidate")
    resume, refused = session.recover(
        args.resume, lambda path: read_checkpoint(path, state_header(config))
    )
    if refused is not None:
        return refused
    # The checkpoint lives beside ``out``: one probe covers both.
    reason = unwritable(out)
    if reason is not None:
        print(f"cannot write {out}: {reason}", file=sys.stderr)
        return 2
    step = max(1, config.budget // 10)
    ran = 0  # candidates this session, for the Ctrl-C line

    def progress(done: int, budget: int, findings: int) -> None:
        nonlocal ran
        ran += 1
        if not args.quiet and (done % step == 0 or done == budget):
            print(
                f"  {done}/{budget} candidates, {findings} finding(s)",
                file=sys.stderr,
            )

    print(
        f"fuzz: seed {config.seed}, budget {config.budget}, "
        f"over-bound {config.over_bound}, space {space.fingerprint()[:12]}",
        file=sys.stderr,
    )
    try:
        summary = run_fuzz(
            config,
            out,
            resume=resume,
            stop_after=args.stop_after,
            progress=progress,
        )
    except KeyboardInterrupt:
        return session.ended(ran, stopped=False)
    if summary.interrupted:
        return session.ended(ran, stopped=True)
    kinds = ", ".join(
        f"{kind}: {count}" for kind, count in sorted(summary.by_kind.items())
    )
    # A resumed session counts only its own candidates; the findings are
    # the whole corpus's.
    scope = "" if summary.resumed_at is None else "this session: "
    print(
        f"fuzzed {config.budget} candidates ({scope}{summary.executed} executed, "
        f"{summary.duplicates} duplicate(s), {summary.skipped} skipped): "
        f"{summary.findings} finding(s)"
        + (f" [{kinds}]" if kinds else "")
        + f" -> {out}",
        file=sys.stderr,
    )
    if summary.resumed_at is not None:
        # Always reported, like ``campaign run --resume``'s line.
        print(
            f"resumed: {summary.resumed_at} candidate(s) recorded, "
            f"{summary.kept} finding(s) kept",
            file=sys.stderr,
        )
    if args.fail_on_finding and summary.findings:
        return 1
    return 0


def _load_finding(path: str, index: Optional[int]):
    """One record from a findings corpus (by index, default the first)."""
    from repro.fuzz import scan_findings

    if not Path(path).exists():  # resume reads a missing corpus as empty
        print(f"cannot read findings {path}: no such file", file=sys.stderr)
        return None
    try:
        records = scan_findings(Path(path))
    except (OSError, ValueError) as exc:
        print(f"cannot read findings {path}: {exc}", file=sys.stderr)
        return None
    if not records:
        print(f"no findings in {path}", file=sys.stderr)
        return None
    if index is None:
        return records[0]
    for record in records:
        if int(record["index"]) == index:
            return record
    known = ", ".join(str(r["index"]) for r in records)
    print(
        f"no finding with index {index} in {path} (have: {known})",
        file=sys.stderr,
    )
    return None


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzz import replay_finding

    record = _load_finding(args.findings, args.index)
    if record is None:
        return 2
    shrunk = args.shrunk and "shrunk" in record
    if args.shrunk and "shrunk" not in record:
        print(
            "record has no shrunk form (it was recorded without shrinking); "
            "replaying the original candidate",
            file=sys.stderr,
        )
    key = record["shrunk_key"] if shrunk else record["key"]
    verdict = replay_finding(record, shrunk=shrunk)
    expected = record["kind"]
    print(f"candidate {key}")
    print(f"recorded kind: {expected}")
    print(
        f"replayed kind: {verdict.kind} (status {verdict.status}, "
        f"violated {list(verdict.violated)})"
    )
    if verdict.kind != expected:
        print("REPLAY MISMATCH: finding did not reproduce", file=sys.stderr)
        return 1
    print("finding reproduced")
    return 0


def _cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        FuzzCandidate,
        candidate_seed,
        classify_candidate,
        record_over_bound,
        shrink_candidate,
        shrunk_fields,
    )

    record = _load_finding(args.findings, args.index)
    if record is None:
        return 2
    kind = record["kind"]
    candidate = FuzzCandidate.from_mapping(record["candidate"])
    fuzz_seed = int(record["fuzz_seed"])
    mode = record_over_bound(record)
    result = shrink_candidate(
        candidate,
        kind,
        fuzz_seed=fuzz_seed,
        over_bound=mode,
    )
    print(f"original: {candidate.key()}")
    print(f"shrunk:   {result.candidate.key()}")
    print(
        f"{len(result.ops)} accepted step(s) in {result.attempts} attempt(s):"
    )
    for op in result.ops:
        print(f"  - {op}")
    verdict = classify_candidate(
        result.candidate,
        candidate_seed(fuzz_seed, result.candidate),
        over_bound=mode,
    )
    if verdict.kind != kind:
        print("SHRINK MISMATCH: minimal candidate lost the finding",
              file=sys.stderr)
        return 1
    print(json.dumps(shrunk_fields(fuzz_seed, result), sort_keys=True))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_fuzz_run,
        "replay": _cmd_fuzz_replay,
        "shrink": _cmd_fuzz_shrink,
    }
    return handlers[args.fuzz_command](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generic consensus algorithms (DSN 2010) — experiment CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list algorithms and strategies")

    sub.add_parser("table1", help="print Table 1")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be ≥ 1, got {value}")
        return value

    def positive_float(text: str) -> float:
        value = float(text)
        if not 0 < value < float("inf"):  # nan fails both comparisons
            raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
        return value

    def no_repeats(entries: list, labels: list) -> list:
        # A repeated entry would run (or print) one cell twice.
        for index, label in enumerate(labels):
            if label in labels[:index]:
                raise argparse.ArgumentTypeError(f"repeats {label}")
        return entries

    def rate_list(text: str) -> list:
        rates = [positive_float(rate) for rate in text.split(",") if rate]
        if not rates:
            raise argparse.ArgumentTypeError("needs at least one rate")
        # Rates compare as the sweep's ``rate{:g}`` cell coordinate.
        return no_repeats(rates, [f"{rate:g}" for rate in rates])

    def scenario_list(text: str) -> list:
        names = [name for name in text.split(",") if name]
        if not names:
            raise argparse.ArgumentTypeError("needs at least one scenario name")
        return no_repeats(names, names)

    def field_list(text: str) -> tuple:
        keys = tuple(key.strip() for key in text.split(",") if key.strip())
        if not keys:
            raise argparse.ArgumentTypeError("needs at least one field")
        return no_repeats(keys, keys)

    def add_cell_arguments(
        target: argparse.ArgumentParser,
        algorithm: Optional[str] = None,
        n: Optional[int] = None,
        b: int = 0,
    ) -> None:
        # One consensus cell; without an algorithm or n default, the
        # option is required.
        target.add_argument(
            "--algorithm", required=algorithm is None, default=algorithm,
            help="builder name or class-N"
            + (f" (default {algorithm})" if algorithm else ""),
        )
        target.add_argument("--n", type=int, required=n is None, default=n)
        target.add_argument("--b", type=int, default=b)
        target.add_argument("--f", type=int, default=0)
        target.add_argument("--engine", choices=ENGINES, default="lockstep")
        target.add_argument("--seed", type=int, default=0)
        target.add_argument(
            "--max-phases", type=positive_int, default=DEFAULT_PHASES,
            metavar="P",
            help="run at least P phases, and at least the horizon the "
            f"scenario needs (default {DEFAULT_PHASES})",
        )

    scenario = sub.add_parser(
        "scenario", help="declarative scenarios (list/run)"
    )
    ssub = scenario.add_subparsers(dest="scenario_command", required=True)
    ssub.add_parser("list", help="list registered scenarios")
    srun = ssub.add_parser(
        "run", help="compile one scenario and run it on either engine"
    )
    srun.add_argument("name", help="a registered scenario name")
    add_cell_arguments(srun)

    profile = sub.add_parser(
        "profile",
        help="run one scenario under phase-level profiling and print the "
        "span breakdown",
    )
    profile.add_argument("scenario", help="a registered scenario name")
    add_cell_arguments(profile)
    profile.add_argument(
        "--repeat",
        type=positive_int,
        default=1,
        metavar="N",
        help="aggregate spans over N runs (seeds seed..seed+N-1)",
    )
    profile.add_argument(
        "--batch",
        type=positive_int,
        default=None,
        metavar="B",
        help="profile the batch kernel instead: execute B campaign-style "
        "repetitions of this cell as one batch and print the plan, the "
        "batch.* counters and the span breakdown",
    )

    smr = sub.add_parser(
        "smr",
        help="replicated state-machine serving (batched, pipelined "
        "consensus under open-loop load)",
    )
    smrsub = smr.add_subparsers(dest="smr_command", required=True)

    def add_serve_arguments(target: argparse.ArgumentParser) -> None:
        add_cell_arguments(target, "pbft", 4, 1)
        target.add_argument("--scenario", default="fault-free",
                            help="fault scenario name (default fault-free)")
        target.add_argument("--batch", type=positive_int, default=8,
                            metavar="B",
                            help="max commands per slot (default 8)")
        target.add_argument("--depth", type=positive_int, default=2,
                            metavar="D",
                            help="pipeline window: slots in flight "
                            "(default 2)")
        target.add_argument("--clients", type=positive_int, default=4)
        target.add_argument("--rate", type=positive_float, default=200.0,
                            help="aggregate arrival rate per simulated "
                            "time unit (default 200)")
        target.add_argument("--duration", type=positive_float, default=1.0,
                            help="workload length in simulated time units")
        target.add_argument("--arrival", choices=["poisson", "fixed"],
                            default="poisson")

    serve = smrsub.add_parser(
        "serve",
        help="serve one open-loop workload and report throughput + "
        "request-latency percentiles",
    )
    add_serve_arguments(serve)
    serve.add_argument(
        "--json",
        action="store_true",
        help="print the report as one JSON object (CI digest checks)",
    )

    ssweep = smrsub.add_parser(
        "sweep",
        help="serve campaign cells over load rates x fault scenarios",
    )
    add_serve_arguments(ssweep)
    ssweep.add_argument(
        "--rates",
        type=rate_list,
        default="50,200,800",
        help="comma-separated load axis (default 50,200,800)",
    )
    ssweep.add_argument(
        "--scenarios",
        type=scenario_list,
        default=None,
        help="comma-separated scenario names (default: every registered "
        "scenario)",
    )
    ssweep.add_argument("--out", default=None, help="results JSONL path")

    campaign = sub.add_parser(
        "campaign", help="declarative scenario sweeps (run/report/list)"
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    csub.add_parser("list", help="list built-in campaigns")

    crun = csub.add_parser("run", help="expand and execute a campaign grid")
    crun.add_argument("spec", help="spec file (.json/.toml) or built-in name")
    crun.add_argument(
        "--workers",
        type=positive_int,
        default=1,
        help="worker processes for per-run work; a cell that executes at "
        "most once (replicated or rejected) runs in this process, and a "
        "grid of only such cells starts no worker",
    )
    crun.add_argument(
        "--chunk",
        type=positive_int,
        default=None,
        help="runs submitted per worker task (default: auto-sized from the "
        "grid); row contents are identical at any chunk size",
    )
    crun.add_argument("--seed", type=int, default=None, help="override campaign seed")
    crun.add_argument("--out", default=None, help="results JSONL path")
    crun.add_argument("--quiet", action="store_true", help="suppress progress")
    crun.add_argument(
        "--no-report", action="store_true", help="skip the aggregated summary"
    )
    crun.add_argument(
        "--resume",
        action="store_true",
        help="complete an interrupted campaign from its <out>.partial "
        "checkpoint (recorded runs are skipped, not re-executed)",
    )
    crun.add_argument(
        "--stop-after",
        type=positive_int,
        default=None,
        metavar="N",
        help="stop gracefully after N runs this session, leaving the "
        "checkpoint for --resume (exit code 3); used by interrupt testing",
    )
    crun.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="append structured lifecycle events (campaign/chunk/row/"
        "heartbeat) as JSONL to PATH; result rows are byte-identical "
        "with or without it",
    )
    crun.add_argument(
        "--progress",
        action="store_true",
        help="live single-line stderr progress (rows done/total, rows/s, "
        "eta, error counts) instead of the every-10%% prints",
    )
    crun.add_argument(
        "--backend",
        choices=["auto", "batch", "scalar"],
        default="auto",
        help="execution backend: auto (the default) batches campaign cells "
        "of ≥ 4 runs through the batch kernel, batch forces it on every "
        "cell, scalar forces the per-run oracle; result rows are "
        "byte-identical at every backend",
    )

    cplan = csub.add_parser(
        "plan",
        help="print each campaign cell's batch tier (replicate / "
        "columnar-state / scalar) and why, without executing",
    )
    cplan.add_argument("spec", help="spec file (.json/.toml) or built-in name")
    cplan.add_argument(
        "--explain",
        action="store_true",
        help="under each scalar cell, list every eligibility clause that "
        "keeps it off the columnar-state tier",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="adversarial scenario fuzzing (run/replay/shrink)",
    )
    fsub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    frun = fsub.add_parser(
        "run",
        help="seeded violation hunt over the scenario space; findings are "
        "shrunk and logged to a replayable JSONL corpus",
    )
    frun.add_argument("--seed", type=int, default=0, help="fuzz seed")
    frun.add_argument(
        "--budget",
        type=positive_int,
        default=100,
        help="candidate indices to walk (a fixed seed+budget is a "
        "deterministic run: the findings file is byte-identical across "
        "reruns and kill/--resume cycles)",
    )
    frun.add_argument(
        "--out", default="findings.jsonl", help="findings JSONL path"
    )
    frun.add_argument(
        "--resume",
        action="store_true",
        help="complete an interrupted fuzz run from its <out>.partial checkpoint",
    )
    frun.add_argument(
        "--stop-after",
        type=positive_int,
        default=None,
        metavar="N",
        help="stop gracefully after N candidates this session, leaving the "
        "checkpoint for --resume (exit code 3); used by interrupt testing",
    )
    frun.add_argument("--quiet", action="store_true", help="suppress progress")
    frun.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict the algorithm pool (default: all deterministic "
        "builders plus class-1/2/3)",
    )
    frun.add_argument(
        "--engines",
        nargs="+",
        choices=ENGINES,
        default=None,
        help="restrict the engine pool (default: all)",
    )
    frun.add_argument(
        "--models",
        nargs="+",
        default=None,
        metavar="N,B,F",
        help="explicit (n,b,f) pool, e.g. --models 4,2,0 3,1,1 "
        "(default: n sampled from 3..9)",
    )
    frun.add_argument(
        "--strategies",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict the Byzantine strategy pool",
    )
    frun.add_argument(
        "--over-bound",
        choices=["never", "allow", "only"],
        default="never",
        help="whether models rejected by the Theorem 1 bounds execute on "
        "clamped boundary parameters (allow), are the only cells executed "
        "(only), or classify as skipped (never, the default)",
    )
    frun.add_argument(
        "--fail-on-finding",
        action="store_true",
        help="exit 1 when any finding is recorded (CI in-bounds gate)",
    )

    freplay = fsub.add_parser(
        "replay",
        help="re-execute one corpus finding and check it still reproduces",
    )
    freplay.add_argument("findings", help="path to a findings .jsonl file")
    freplay.add_argument(
        "--index",
        type=int,
        default=None,
        help="finding index to replay (default: the first record)",
    )
    freplay.add_argument(
        "--shrunk",
        action="store_true",
        help="replay the minimized candidate instead of the original",
    )

    fshrink = fsub.add_parser(
        "shrink",
        help="re-shrink one corpus finding and print the minimal candidate",
    )
    fshrink.add_argument("findings", help="path to a findings .jsonl file")
    fshrink.add_argument(
        "--index",
        type=int,
        default=None,
        help="finding index to shrink (default: the first record)",
    )

    creport = csub.add_parser("report", help="aggregate a results JSONL file")
    creport.add_argument("results", help="path to a results .jsonl file")
    creport.add_argument(
        "--group-by",
        type=field_list,
        default=None,
        help="comma-separated row fields (default algorithm,n,b,f,engine,fault)",
    )
    creport.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="join per-run wall durations back from a campaign-run events "
        "sidecar (adds wall-ms columns and the slowest-cell ranking)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "table1": _cmd_table1,
        "scenario": _cmd_scenario,
        "profile": _cmd_profile,
        "smr": _cmd_smr,
        "campaign": _cmd_campaign,
        "fuzz": _cmd_fuzz,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
