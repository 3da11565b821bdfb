"""Per-layer tracing of one in-process ``repro.cli.main(argv)`` call.

Nothing under ``src/`` knows about this file.  :func:`installed` rebinds the
public function at each layer boundary *in the namespace that calls it*
(``repro.campaigns.runner.run_instance``, not ``repro.engine.kernel``) to a
wrapper that records a span ``(name, start, end, parent)``; the originals
are put back afterwards.  A layer's self time is its span minus the part
its child spans cover, so self times partition the traced wall.  A target
that no longer exists is skipped: its metrics read ``null`` and its time
falls to the enclosing span, which lowers ``trace.coverage`` when that is
the root.  Tracing is never installed during a measured launch.

Run as ``python -m e2e.trace <request.json>`` (one process per call) or
imported by the smoke test.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pickle
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from e2e.inproc import campaign_spec
from e2e.workloads import BY_NAME, Workload

ROOT = "cli"
#: Spans of measurements the tracer itself makes; left out of every sum.
PROBE_PREFIX = "trace.probe."
BATCH_TIERS = ("replicate", "columnar-state", "columnar", "scalar")
#: How many cells get one ``observe="profile"`` run for the kernel shares.
PROFILE_SAMPLES = 24


class Recorder:
    """Spans in memory (``[name, start, end, parent index]``) plus counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.samples: List[tuple] = []  # cells kept for profile sampling
        self.tier_rows: Dict[tuple, int] = {}  # (row cell, producing tier) → rows
        self.last_plan: Optional[str] = None
        self.report: Optional[object] = None  # run_serve / run_fuzz result

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(self seconds, span count)`` per span name."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            seconds[name] = seconds.get(name, 0.0) + (end - start) - children[index]
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls


After = Optional[Callable[[Recorder, int, tuple, dict, object], None]]


def wrap_call(rec: Recorder, name: str, fn: Callable, after: After = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # ``execute_run(timings=True)`` re-enters itself by its global
        # name; the inner call is the same work, not a child layer.
        if rec.stack and rec.spans[rec.stack[-1]][0] == name:
            return fn(*args, **kwargs)
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if after is not None:
            after(rec, index, args, kwargs, result)
        return result

    return wrapper


class _TimedIterator:
    """Times each ``next()`` of a generator as one span of ``name``."""

    def __init__(self, rec: Recorder, name: str, inner: Iterator) -> None:
        self._rec = rec
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        rec = self._rec
        index = rec.begin(self._name)
        try:
            item = next(self._inner)
        finally:
            rec.end(index)
        rec.count(self._name)
        return item

    def close(self) -> None:
        self._inner.close()


def wrap_iter(rec: Recorder, name: str, fn: Callable, after: After = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedIterator(rec, name, iter(fn(*args, **kwargs)))

    return wrapper


# ------------------------------------------------------------ after-hooks


def _after_build_parser(rec, _index, _args, _kwargs, parser) -> None:
    parser.parse_args = wrap_call(rec, "cli.parse", parser.parse_args)


def _after_plan(rec, _index, _args, _kwargs, plan) -> None:
    rec.last_plan = getattr(plan, "mode", None)


def _after_run_batch(rec, index, _args, _kwargs, _rows) -> None:
    if rec.last_plan is not None:
        rec.spans[index][0] = f"engine.batch.{rec.last_plan}"
    rec.last_plan = None


def _after_execute_chunk(rec, _index, args, _kwargs, rows) -> None:
    """What ``--workers 2`` would pay to ship this chunk and its rows."""
    probe = rec.begin(PROBE_PREFIX + "pickle")
    sent = pickle.dumps(args[0])
    pickle.loads(sent)
    returned = pickle.dumps(rows)
    pickle.loads(returned)
    rec.end(probe)
    rec.count("pickle_bytes", len(sent) + len(returned))
    rec.count("pickle_rows", len(rows))


def _after_append(rec, _index, args, _kwargs, _result) -> None:
    row = args[1]
    key = (_row_cell(row), row.get("_backend", "scalar"))
    rec.tier_rows[key] = rec.tier_rows.get(key, 0) + 1
    rec.count("rounds", row.get("rounds") or 0)
    rec.count("messages", row.get("messages_sent") or 0)


def _after_run_instance(rec, _index, _args, _kwargs, outcome) -> None:
    rec.count("kernel.rounds", outcome.rounds_executed)
    rec.count("kernel.messages", outcome.messages_sent)


def _after_classify(rec, _index, args, _kwargs, verdict) -> None:
    if verdict.status == "ok":
        rec.count("fuzz.ok")
        if len(rec.samples) < PROFILE_SAMPLES:
            candidate, seed = args[0], args[1]
            rec.samples.append((
                candidate.algorithm, (candidate.n, candidate.b, candidate.f),
                candidate.scenario, candidate.engine, seed,
                candidate.max_phases, None,
            ))


def _after_report(rec, _index, _args, _kwargs, report) -> None:
    rec.report = report


# ---------------------------------------------------------------- targets

#: (span name, module, attribute path, wrapper, after-hook, workload kinds).
#: The module is the namespace the *caller* looks the name up in.
_C, _F, _S = "campaign", "fuzz", "smr"
TARGETS: Tuple[tuple, ...] = (
    ("cli.parse", "repro.cli", "build_parser", wrap_call, _after_build_parser, (_C, _F, _S)),
    ("campaigns.spec.load", "repro.campaigns", "load_spec", wrap_call, None, (_C,)),
    ("campaigns.spec.expand", "repro.campaigns.spec", "CampaignSpec.iter_runs", wrap_iter, None, (_C,)),
    ("campaigns.runner.dispatch", "repro.campaigns", "iter_campaign", wrap_iter, None, (_C,)),
    ("campaigns.runner.execute", "repro.campaigns.runner", "execute_chunk", wrap_call, _after_execute_chunk, (_C,)),
    ("campaigns.runner.execute_run", "repro.campaigns.runner", "execute_run", wrap_call, None, (_C,)),
    ("engine.batch.run", "repro.engine.batch", "run_batch", wrap_call, _after_run_batch, (_C,)),
    ("engine.batch.plan", "repro.engine.batch.kernel", "plan_for_run", wrap_call, _after_plan, (_C,)),
    ("scenarios.compile", "repro.campaigns.runner", "compile_scenario", wrap_call, None, (_C,)),
    ("scenarios.compile", "repro.engine.batch.kernel", "compile_batch_scenario", wrap_call, None, (_C,)),
    ("scenarios.compile", "repro.fuzz.classify", "compile_scenario", wrap_call, None, (_F,)),
    ("scenarios.compile", "repro.smr.serve", "compile_scenario", wrap_call, None, (_S,)),
    ("engine.assembly.build", "repro.campaigns.runner", "build_instance", wrap_call, None, (_C,)),
    ("engine.assembly.build", "repro.engine.batch.kernel", "build_instance", wrap_call, None, (_C,)),
    ("engine.assembly.build", "repro.fuzz.classify", "build_instance", wrap_call, None, (_F,)),
    ("engine.assembly.build", "repro.smr.serve", "build_instance", wrap_call, None, (_S,)),
    ("engine.kernel.run", "repro.campaigns.runner", "run_instance", wrap_call, None, (_C,)),
    ("engine.kernel.run", "repro.fuzz.classify", "run_instance", wrap_call, _after_run_instance, (_F,)),
    ("engine.kernel.run", "repro.smr.serve", "run_instance", wrap_call, _after_run_instance, (_S,)),
    ("campaigns.results.serialize", "repro.campaigns.results", "row_to_json", wrap_call, None, (_C,)),
    ("campaigns.results.append", "repro.campaigns.results", "ResultSink.append", wrap_call, _after_append, (_C,)),
    ("campaigns.results.finalize", "repro.campaigns.results", "finalize_checkpoint", wrap_call, None, (_C,)),
    ("campaigns.results.scan", "repro.campaigns.results", "validate_resume", wrap_call, None, (_C,)),
    ("campaigns.results.read", "repro.campaigns.results", "iter_rows", wrap_iter, None, (_C,)),
    ("campaigns.aggregate.fold", "repro.campaigns.aggregate", "SummaryFold.add", wrap_call, None, (_C,)),
    ("campaigns.aggregate.fold", "repro.campaigns.aggregate", "SummaryFold.summaries", wrap_call, None, (_C,)),
    ("campaigns.aggregate.fold", "repro.campaigns", "format_report", wrap_call, None, (_C,)),
    ("campaigns.aggregate.fold", "repro.campaigns", "format_slowest_cells", wrap_call, None, (_C,)),
    ("fuzz.loop", "repro.fuzz", "run_fuzz", wrap_call, _after_report, (_F,)),
    ("fuzz.space.generate", "repro.fuzz.runner", "candidate_at", wrap_call, None, (_F,)),
    ("fuzz.classify.execute", "repro.fuzz.runner", "classify_candidate", wrap_call, _after_classify, (_F,)),
    ("fuzz.corpus.state_write", "repro.fuzz.runner", "write_state", wrap_call, None, (_F,)),
    ("fuzz.shrink", "repro.fuzz.runner", "shrink_candidate", wrap_call, None, (_F,)),
    ("smr.serve.loop", "repro.smr", "run_serve", wrap_call, _after_report, (_S,)),
    ("smr.serve.arrivals", "repro.smr.serve", "WorkloadSpec.arrivals", wrap_iter, None, (_S,)),
)

#: metric → span names whose self times it sums.
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "cli.parse_s": ("cli.parse",),
    "campaigns.spec.load_s": ("campaigns.spec.load",),
    "campaigns.spec.expand_s": ("campaigns.spec.expand",),
    "engine.batch.plan_s": ("engine.batch.plan",),
    "engine.batch.replicate_s": ("engine.batch.replicate",),
    "engine.batch.columnar_state_s": ("engine.batch.columnar-state",),
    "engine.batch.columnar_s": ("engine.batch.columnar",),
    "engine.batch.scalar_s": ("engine.batch.scalar", "campaigns.runner.execute_run"),
    "campaigns.runner.execute_s": ("campaigns.runner.dispatch", "campaigns.runner.execute"),
    "scenarios.compile_s": ("scenarios.compile",),
    "engine.assembly.build_s": ("engine.assembly.build",),
    "engine.kernel.run_s": ("engine.kernel.run",),
    "campaigns.results.serialize_s": ("campaigns.results.serialize",),
    "campaigns.results.append_s": ("campaigns.results.append",),
    "campaigns.results.finalize_s": ("campaigns.results.finalize", "campaigns.results.read"),
    "campaigns.results.scan_s": ("campaigns.results.scan",),
    "campaigns.aggregate.fold_s": ("campaigns.aggregate.fold",),
    "fuzz.loop_self_s": ("fuzz.loop",),
    "fuzz.space.generate_s": ("fuzz.space.generate",),
    "fuzz.classify.execute_s": ("fuzz.classify.execute",),
    "fuzz.corpus.state_write_s": ("fuzz.corpus.state_write",),
    "fuzz.shrink_s": ("fuzz.shrink",),
    "smr.serve.loop_self_s": ("smr.serve.loop",),
    "smr.serve.arrivals_s": ("smr.serve.arrivals",),
    "smr.slot.compile_s": ("scenarios.compile",),
    "smr.slot.build_s": ("engine.assembly.build",),
    "smr.slot.kernel_s": ("engine.kernel.run",),
}
_SMR_ONLY = ("smr.slot.compile_s", "smr.slot.build_s", "smr.slot.kernel_s")


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` or ``None`` when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, attribute, getattr(owner, attribute)
    except (ImportError, AttributeError):
        return None


def targets_for(kind: str) -> List[tuple]:
    return [target for target in TARGETS if kind in target[5]]


@contextlib.contextmanager
def installed(
    rec: Recorder, kind: str, targets: Optional[Sequence[tuple]] = None,
    *, wrap: bool = True,
):
    """Wrap every resolvable target of ``kind``; yields ``(spans, missing)``.

    ``spans`` is the set of span names that can occur, ``missing`` the
    targets that did not resolve.  With ``wrap=False`` the modules are only
    imported — the untraced baseline starts from the same warm imports.
    """
    chosen = targets_for(kind) if targets is None else list(targets)
    available: Set[str] = set()
    missing: List[str] = []
    undo: List[tuple] = []
    try:
        for name, module_name, path, wrapper, after, _kinds in chosen:
            found = _resolve(module_name, path)
            if found is None:
                missing.append(f"{module_name}:{path}")
                continue
            available.add(name)
            if wrap:
                owner, attribute, original = found
                setattr(owner, attribute, wrapper(rec, name, original, after))
                undo.append((owner, attribute, original))
        if "engine.batch.run" in available:
            available.update(f"engine.batch.{tier}" for tier in BATCH_TIERS)
        yield available, missing
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


# ------------------------------------------------------- campaign planning


def _row_cell(row: Dict[str, object]) -> tuple:
    """The campaign cell a result row belongs to (see :func:`_run_cell`)."""
    return (
        row.get("algorithm"), row.get("n"), row.get("b"), row.get("f"),
        row.get("engine"), row.get("fault"), row.get("network"),
    )


def _run_cell(run) -> tuple:
    return (
        run.algorithm, run.n, run.b, run.f, run.engine,
        run.scenario.describe_fault(), run.scenario.describe_network(),
    )


def plan_grid(spec) -> Tuple[Dict[str, int], Dict[tuple, str], List[tuple]]:
    """Planned cells per tier, each row-cell's tier, and profile samples."""
    from repro.engine.batch import cell_key, plan_for_run

    cells: Dict[object, Tuple[object, str]] = {}
    for run in spec.iter_runs():
        key = cell_key(run)
        if key not in cells:
            cells[key] = (run, plan_for_run(run).mode)
    tally = {tier: 0 for tier in BATCH_TIERS}
    plan_of: Dict[tuple, str] = {}
    kernel_cells = []
    for run, mode in cells.values():
        tally[mode] += 1
        plan_of[_run_cell(run)] = mode
        if mode in ("scalar", "replicate"):  # run_instance does their rounds
            kernel_cells.append((
                run.algorithm, (run.n, run.b, run.f), run.scenario,
                run.engine, run.seed, run.max_phases, None,
            ))
    stride = max(1, len(kernel_cells) // PROFILE_SAMPLES)
    return tally, plan_of, kernel_cells[::stride][:PROFILE_SAMPLES]


# --------------------------------------------------------- kernel sampling

#: metric → the repo's ``observe="profile"`` span it is the share of.
PROFILE_SHARES = {
    "engine.kernel.send_share": "kernel.send",
    "engine.kernel.apply_share": "kernel.apply",
    "engine.kernel.probe_share": "kernel.probe",
    "engine.scheduler.deliver_share": "scheduler.deliver",
    "eventsim.network.sample_share": "network.sample",
}


def profile_shares(samples: Sequence[tuple]) -> Dict[str, Optional[float]]:
    """Kernel-internal time shares from one profiled run per sampled cell.

    A sample is ``(algorithm, (n, b, f), scenario, engine, seed,
    max_phases, proposal)``; ``proposal`` is the one value every honest
    process proposes, or ``None`` for the runner's v0/v1 split.  Uses only
    public API (``observe="profile"``); a cell the algorithm does not
    admit is skipped, like the runner's inadmissible rows.
    """
    from repro.campaigns.spec import resolve_algorithm
    from repro.core.types import FaultModel
    from repro.engine.assembly import build_instance
    from repro.engine.kernel import run_instance
    from repro.observability import Telemetry
    from repro.scenarios.compile import compile_scenario
    from repro.scenarios.spec import split_values

    telemetry = Telemetry()
    for algorithm, model, scenario, engine, seed, max_phases, proposal in samples:
        try:
            fault_model = FaultModel(*model)
            parameters, config = resolve_algorithm(algorithm, fault_model)
            compiled = compile_scenario(scenario, fault_model, engine, seed)
        except (ValueError, KeyError):
            continue
        values = split_values(fault_model, compiled.byzantine)
        if proposal is not None:
            values = {pid: proposal for pid in values}
        run_instance(
            build_instance(
                parameters, values, config=config, byzantine=compiled.byzantine
            ),
            compiled.scheduler,
            max_phases=(
                compiled.max_phases() if max_phases is None
                else max(max_phases, compiled.max_phases(max_phases))
            ),
            observe="profile",
            crash_schedule=compiled.crash_schedule,
            telemetry=telemetry,
        )
    total = telemetry.total_span_seconds()
    if not total:
        return {metric: None for metric in PROFILE_SHARES}
    return {
        metric: (
            telemetry.span_stats(span)["self_s"] / total
            if span in telemetry.span_names else 0.0
        )
        for metric, span in PROFILE_SHARES.items()
    }


def _smr_sample(argv: Sequence[str]) -> List[tuple]:
    """The serving cell's first slot, as :func:`profile_shares` wants it."""
    from repro.campaigns.spec import derive_seed
    from repro.cli import build_parser
    from repro.scenarios.registry import get_scenario

    args = build_parser().parse_args(list(argv))
    batch = tuple(("set", f"c0k{index}", index) for index in range(args.batch))
    return [(
        args.algorithm, (args.n, args.b, args.f), get_scenario(args.scenario),
        args.engine, derive_seed(args.seed, "slot0attempt0"),
        args.max_phases, batch,
    )]


# ------------------------------------------------------------- the run


def run_cli(argv: Sequence[str], work: Path, rec: Optional[Recorder]) -> Tuple[int, float]:
    """``repro.cli.main(argv)`` with output sent to files in ``work``.

    Returns ``(exit code, wall seconds)``; with a recorder the call is the
    root span.
    """
    from repro.cli import main

    with open(work / "inproc.stdout", "w", encoding="utf-8") as out, \
            open(work / "inproc.stderr", "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = perf_counter()
        root = rec.begin(ROOT) if rec is not None else None
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        finally:
            if rec is not None:
                rec.end(root)
        wall = perf_counter() - started
    return code, wall


def trace_workload(
    workload: Workload, inputs: Dict[str, object], argv: Sequence[str],
    work: Path, *, traced: bool = True, keep: bool = False,
    targets: Optional[Sequence[tuple]] = None,
) -> Dict[str, object]:
    """One in-process run; with ``traced`` the per-layer metrics as well.

    Planning the grid and profiling sampled cells happen after the timed
    call, so the traced and the untraced run start from the same memos.
    """
    rec = Recorder()
    with installed(rec, workload.kind, targets, wrap=traced) as (available, missing):
        code, wall = run_cli(argv, work, rec if traced else None)
    if not traced:
        return {"rc": code, "wall_s": wall}
    metrics, traced_wall = layer_metrics(workload, rec, available, work)
    if workload.kind == "campaign":
        spec = campaign_spec(workload.grid, inputs["seed"], inputs["spec"])
        tally, plan_of, samples = plan_grid(spec)
        metrics.update(tier_metrics(rec, available, tally, plan_of))
    elif workload.kind == "fuzz":
        samples = rec.samples
    else:
        samples = _smr_sample(argv)
    metrics.update(profile_shares(samples))
    if keep:
        with open(work / "spans.jsonl", "w", encoding="utf-8") as handle:
            for span in rec.spans:
                handle.write(json.dumps(span) + "\n")
    return {"rc": code, "wall_s": traced_wall, "metrics": metrics, "missing": missing}


def tier_metrics(
    rec: Recorder, available: Set[str],
    tally: Dict[str, int], plan_of: Dict[tuple, str],
) -> Dict[str, Optional[float]]:
    """Planned cells per tier; rows per producing tier; rows that demoted."""
    metrics: Dict[str, Optional[float]] = {
        f"engine.batch.cells_{tier.replace('-', '_')}": tally[tier]
        for tier in BATCH_TIERS
    }
    if "campaigns.results.append" not in available:
        return metrics
    rows = {tier: 0 for tier in BATCH_TIERS}
    demoted = 0
    for (cell, tier), count in rec.tier_rows.items():
        rows[tier] = rows.get(tier, 0) + count
        if plan_of.get(cell, tier) != tier:
            demoted += count
    for tier in BATCH_TIERS:
        metrics[f"engine.batch.rows_{tier.replace('-', '_')}"] = rows[tier]
    metrics["engine.batch.demoted_rows"] = demoted
    return metrics


def layer_metrics(
    workload: Workload, rec: Recorder, available: Set[str], work: Path
) -> Tuple[Dict[str, Optional[float]], float]:
    """``(metrics, traced wall)`` from the recorder's spans and counters."""
    seconds, calls = rec.self_times()
    counts = rec.counts
    metrics: Dict[str, Optional[float]] = {}
    for metric, spans in SPAN_METRICS.items():
        if metric in _SMR_ONLY and workload.kind != "smr":
            continue
        if any(span in available for span in spans):
            metrics[metric] = sum(seconds.get(span, 0.0) for span in spans)
    probes = sum(
        value for name, value in seconds.items() if name.startswith(PROBE_PREFIX)
    )
    root = next(span for span in rec.spans if span[0] == ROOT)
    traced_wall = (root[2] - root[1]) - probes
    metrics["cli.self_s"] = seconds[ROOT]
    metrics["trace.coverage"] = 1.0 - seconds[ROOT] / traced_wall
    if "scenarios.compile" in available:
        metrics["scenarios.compile_calls"] = calls.get("scenarios.compile", 0)

    if workload.kind == "campaign":
        if "campaigns.spec.expand" in available:
            metrics["campaigns.spec.runs"] = counts.get("campaigns.spec.expand", 0)
        if "campaigns.runner.execute" in available:
            metrics["campaigns.runner.chunks"] = calls.get("campaigns.runner.execute", 0)
            metrics["campaigns.runner.pickle_s"] = seconds.get(PROBE_PREFIX + "pickle", 0.0)
            rows = counts.get("pickle_rows", 0)
            metrics["campaigns.runner.pickle_bytes_per_row"] = (
                counts.get("pickle_bytes", 0) / rows if rows else None
            )
        if "campaigns.results.append" in available:
            metrics["engine.kernel.rounds"] = counts.get("rounds", 0)
            metrics["engine.kernel.messages"] = counts.get("messages", 0)
        results = work / "results.jsonl"
        if results.exists():
            with open(results, "rb") as handle:
                lines = sum(1 for _ in handle)
            if lines:
                metrics["campaigns.results.bytes_per_row"] = results.stat().st_size / lines
    elif "engine.kernel.run" in available:
        metrics["engine.kernel.rounds"] = counts.get("kernel.rounds", 0)
        metrics["engine.kernel.messages"] = counts.get("kernel.messages", 0)

    if workload.kind == "fuzz" and rec.report is not None:
        summary = rec.report
        budget = summary.executed + summary.duplicates
        metrics.update({
            "fuzz.candidates": budget,
            "fuzz.executed": summary.executed,
            "fuzz.duplicates": summary.duplicates,
            "fuzz.skipped": summary.skipped,
            "fuzz.findings": summary.findings,
            "fuzz.useful_share": summary.ok / budget if budget else None,
        })
    if workload.kind == "smr" and rec.report is not None:
        report = rec.report
        slots = report.slots_committed
        commands = report.committed_commands
        metrics.update({
            "smr.slots": slots,
            "smr.retries": report.retries,
            "smr.rejected": report.rejected,
            "smr.mean_batch": report.mean_batch_size,
            "smr.rounds_per_slot": counts.get("kernel.rounds", 0) / slots if slots else None,
            "smr.messages_per_command": (
                counts.get("kernel.messages", 0) / commands if commands else None
            ),
            "smr.backlog_at_end": report.offered - commands,
            "smr.latency_p50": report.latency.get("p50"),
            "smr.latency_p99": report.latency.get("p99"),
        })
    return metrics, traced_wall


def main(argv: List[str]) -> int:
    request = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = trace_workload(
        BY_NAME[request["workload"]], request["inputs"], request["argv"],
        Path(request["work"]), traced=request["traced"], keep=request["keep"],
    )
    json.dump(result, sys.__stdout__, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
