"""The benchmark's fixed tables: sizes, workloads, commands and metric names.

Standard library only — the driver imports this and must stay small.
Everything a later change is compared on is pinned here; a change that
claims a gain may not edit this directory (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does (``SMOKE`` exists for the test)."""

    replicate_reps: int = 200
    stochastic_reps: int = 32
    fuzz_budget: int = 1500
    smr_duration: float = 5000.0
    companion_duration: float = 250.0
    ladder_requests: int = 5000
    oracle_rows: int = 64


FULL = Sizes()
SMOKE = Sizes(
    replicate_reps=2,
    stochastic_reps=2,
    fuzz_budget=40,
    smr_duration=50.0,
    companion_duration=10.0,
    ladder_requests=100,
    oracle_rows=8,
)

#: Gauntlet scenarios whose outcome does not depend on the run seed (the
#: planner replicates them) and the three that do.
DETERMINISTIC_SCENARIOS = (
    "crash_storm", "fault-free", "partition_heal", "silent_minority",
    "worst_case",
)
STOCHASTIC_SCENARIOS = ("async_then_sync", "flaky_gst", "lossy_channel")

#: Derived grids: (campaign name, scenarios kept, models, Sizes field).
GRIDS: Dict[str, Tuple[str, Tuple[str, ...], Tuple[Tuple[int, int, int], ...], str]] = {
    "replicate": (
        "e2e-replicate", DETERMINISTIC_SCENARIOS,
        ((7, 1, 1), (9, 1, 1)), "replicate_reps",
    ),
    "stochastic": (
        "e2e-stochastic", STOCHASTIC_SCENARIOS,
        ((9, 1, 1), (21, 2, 2)), "stochastic_reps",
    ),
}

#: The serving cell of ``smr-serve``: open loop on the simulated clock at
#: 75 % of the 10.67 cmds/unit capacity of (batch 8, depth 4, 3 rounds).
SMR_CELL = (
    "--algorithm", "pbft", "--n", "4", "--b", "1",
    "--scenario", "worst_case", "--engine", "lockstep",
    "--clients", "4", "--arrival", "poisson",
)
SMR_RATE = 8.0
SMR_PIPELINE = ("--batch", "8", "--depth", "4")
SMR_SLOT_AT_A_TIME = ("--batch", "1", "--depth", "1")
#: Rates of the max-rate ladder and the p99 limit (simulated units).
SMR_LADDER = (4.0, 8.0, 10.0, 12.0)
SMR_P99_LIMIT = 10.0

EXIT_INTERRUPTED = 3  # ``campaign run --stop-after`` left a checkpoint


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "campaign" | "fuzz" | "smr"
    item_unit: str
    why: str
    grid: Optional[str] = None  # campaign: "gauntlet" (built-in) or a GRIDS key
    workers: int = 1
    resume: bool = False
    repeats: int = 5  # launches per set when --seconds is not given
    min_repeats: int = 3


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "campaign-small-cold", "campaign", "rows",
        "96-row built-in gauntlet at --workers 2: interpreter start, import, "
        "argparse and pool spin-up are nearly the whole wall; per-row changes "
        "must show nothing",
        grid="gauntlet", workers=2, repeats=15, min_repeats=9,
    ),
    Workload(
        "campaign-replicate", "campaign", "rows",
        "12,000 rows, one run per cell executes: spec expansion, pickling, row "
        "cloning, serialize, flush, fold and finalize sort do the work, the "
        "kernel almost none",
        grid="replicate", workers=2,
    ),
    Workload(
        "campaign-stochastic", "campaign", "rows",
        "1,152 seed-dependent rows on all batch tiers: kernel, scheduler, "
        "network sampling and array tiers do the work, the results layer "
        "almost none",
        grid="stochastic", workers=2,
    ),
    Workload(
        "campaign-resume", "campaign", "rows",
        "the replicate grid resumed from a half-recorded checkpoint at "
        "--workers 1: checkpoint scan, run-id skipping and finalize the "
        "other way round",
        grid="replicate", workers=1, resume=True,
    ),
    Workload(
        "fuzz-search", "fuzz", "candidates",
        "1,500 in-bounds fuzz candidates: the only path that bypasses runner, "
        "pool and batch planner; generation, per-candidate compile + kernel, "
        "state-sidecar rewrite",
    ),
    Workload(
        "smr-serve", "smr", "commands",
        "about 40,000 requests through 6,700 tiny pbft instances, open loop on "
        "the simulated clock: per-slot compile + build and serve-loop "
        "bookkeeping weigh as much as the kernel",
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def cli_args(
    workload: Workload, seed: int, sizes: Sizes, work: Path,
    *, workers: Optional[int] = None,
) -> List[str]:
    """The timed command's arguments after ``python -m repro.cli``.

    Paths point into ``work``, the launch's fresh directory; a campaign
    grid other than the built-in is read from ``work/spec.json``.
    ``workers`` overrides the workload's pool size (the traced run uses 1).
    """
    if workload.kind == "campaign":
        args = _campaign_args(workload, seed, work, workers or workload.workers)
        return args + ["--resume"] if workload.resume else args
    if workload.kind == "fuzz":
        return [
            "fuzz", "run", "--seed", str(seed),
            "--budget", str(sizes.fuzz_budget), "--quiet",
            "--out", str(work / "findings.jsonl"),
        ]
    return smr_args(seed, SMR_RATE, sizes.smr_duration, SMR_PIPELINE)


def _campaign_args(workload: Workload, seed: int, work: Path, workers: int) -> List[str]:
    spec = "gauntlet" if workload.grid == "gauntlet" else str(work / "spec.json")
    return [
        "campaign", "run", spec, "--seed", str(seed),
        "--workers", str(workers), "--quiet",
        "--out", str(work / "results.jsonl"),
    ]


def interrupted_args(workload: Workload, seed: int, work: Path, stop_after: int) -> List[str]:
    """``campaign-resume`` set-up: the first half, stopped with exit 3."""
    return _campaign_args(workload, seed, work, workload.workers) + [
        "--stop-after", str(stop_after),
    ]


def smr_args(
    seed: int, rate: float, duration: float, pipeline: Tuple[str, ...]
) -> List[str]:
    return [
        "smr", "serve", *SMR_CELL, *pipeline, "--rate", f"{rate:g}",
        "--duration", f"{duration:g}", "--seed", str(seed), "--json",
    ]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    note: str  # end to end: meaning; per layer: what it should move, where


#: Host-time metrics every workload reports (the ``end_to_end`` list of
#: BENCHMARK.json, which also holds each one's regression bound).
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", "process start to finalized output on disk (Popen to wait4)"),
    Metric("items_per_s", "1/s", "higher", "rows, candidates or committed commands per wall second"),
    Metric("cpu_s", "s", "lower", "user + system CPU of the whole process tree"),
    Metric("peak_rss_mb", "MB", "lower", "largest resident set in the process tree"),
    Metric("setup_s", "s", "lower", "input generation plus per-launch set-up (resume: the interrupted first half)"),
)

#: Reported next to them in the full report; exact, so never bounded.
#: ``failed_share`` is always 0 on a correct run and the simulated-time
#: three exist on ``smr-serve`` only, so BENCHMARK.json (whose end-to-end
#: metrics must be non-zero on every workload) carries the first as
#: ``failed``/``attempted`` and the others under ``per_layer``.
REPORT_ONLY: Tuple[Metric, ...] = (
    Metric("failed_share", "ratio", "lower", "failed items over items attempted"),
    Metric("smr_latency_p50", "units", "lower", "request arrival to in-order apply, median (simulated)"),
    Metric("smr_latency_p99", "units", "lower", "same, p99; the limit is 10 units"),
    Metric("smr_max_rate_ok", "cmds/unit", "higher", "highest ladder rate whose p99 meets the limit with no backlog"),
)

_T = "s"
PER_LAYER: Tuple[Metric, ...] = (
    # cli
    Metric("cli.start_s", _T, "lower", "bare interpreter start; wall_s on campaign-small-cold"),
    Metric("cli.import_s", _T, "lower", "wall_s on campaign-small-cold (about 40 % of it); nothing elsewhere"),
    Metric("cli.parse_s", _T, "lower", "wall_s on campaign-small-cold"),
    Metric("cli.self_s", _T, "lower", "command glue outside every layer span; wall_s everywhere"),
    # campaigns.spec
    Metric("campaigns.spec.load_s", _T, "lower", "wall_s on campaign-replicate, campaign-resume"),
    Metric("campaigns.spec.expand_s", _T, "lower", "wall_s on campaign-replicate, campaign-resume"),
    Metric("campaigns.spec.runs", "count", "lower", "RunSpecs drawn (resume validation draws again)"),
    # engine.batch
    Metric("engine.batch.plan_s", _T, "lower", "items_per_s, cpu_s on campaign-stochastic"),
    Metric("engine.batch.cells_replicate", "count", "higher", "planned cells; replicate_s on campaign-replicate"),
    Metric("engine.batch.cells_columnar_state", "count", "higher", "planned cells; items_per_s on campaign-stochastic"),
    Metric("engine.batch.cells_columnar", "count", "lower", "planned cells; items_per_s on campaign-stochastic"),
    Metric("engine.batch.cells_scalar", "count", "lower", "planned cells; items_per_s on campaign-stochastic"),
    Metric("engine.batch.rows_replicate", "count", "higher", "rows produced by the tier"),
    Metric("engine.batch.rows_columnar_state", "count", "higher", "rows produced by the tier"),
    Metric("engine.batch.rows_columnar", "count", "lower", "rows produced by the tier"),
    Metric("engine.batch.rows_scalar", "count", "lower", "rows produced by the per-run oracle"),
    Metric("engine.batch.replicate_s", _T, "lower", "wall_s on campaign-replicate only"),
    Metric("engine.batch.columnar_state_s", _T, "lower", "items_per_s, cpu_s on campaign-stochastic"),
    Metric("engine.batch.columnar_s", _T, "lower", "items_per_s, cpu_s on campaign-stochastic"),
    Metric("engine.batch.scalar_s", _T, "lower", "items_per_s, cpu_s on campaign-stochastic"),
    Metric("engine.batch.demoted_rows", "count", "lower", "planned tier differs from producing tier; tail of the --workers 2 run"),
    # campaigns.runner
    Metric("campaigns.runner.execute_s", _T, "lower", "dispatch and chunk grouping; wall_s on campaign-replicate"),
    Metric("campaigns.runner.chunks", "count", "lower", "wall_s on campaign-replicate"),
    Metric("campaigns.runner.pickle_s", _T, "lower", "wall_s, cpu_s on campaign-replicate (what --workers 2 pays per chunk)"),
    Metric("campaigns.runner.pickle_bytes_per_row", "bytes", "lower", "wall_s, cpu_s on campaign-replicate"),
    Metric("campaigns.runner.first_row_s", _T, "lower", "wall_s on campaign-small-cold"),
    Metric("campaigns.runner.worker_busy_share", "ratio", "higher", "items_per_s on campaign-stochastic"),
    # scenarios / assembly
    Metric("scenarios.compile_s", _T, "lower", "items_per_s on smr-serve, fuzz-search; small on campaign-stochastic"),
    Metric("scenarios.compile_calls", "count", "lower", "items_per_s on smr-serve, fuzz-search"),
    Metric("engine.assembly.build_s", _T, "lower", "items_per_s on smr-serve, fuzz-search"),
    # kernel and below
    Metric("engine.kernel.run_s", _T, "lower", "items_per_s, cpu_s on campaign-stochastic, then smr-serve, fuzz-search"),
    Metric("engine.kernel.rounds", "count", "lower", "exact; about 0 cost on campaign-replicate"),
    Metric("engine.kernel.messages", "count", "lower", "exact"),
    Metric("engine.kernel.send_share", "ratio", "lower", "sampled; items_per_s on campaign-stochastic"),
    Metric("engine.kernel.apply_share", "ratio", "lower", "sampled; items_per_s on campaign-stochastic"),
    Metric("engine.kernel.probe_share", "ratio", "lower", "sampled; items_per_s on campaign-stochastic"),
    Metric("engine.scheduler.deliver_share", "ratio", "lower", "sampled; items_per_s on campaign-stochastic"),
    Metric("eventsim.network.sample_share", "ratio", "lower", "sampled; items_per_s on campaign-stochastic"),
    # campaigns.results
    Metric("campaigns.results.serialize_s", _T, "lower", "wall_s on campaign-replicate"),
    Metric("campaigns.results.bytes_per_row", "bytes", "lower", "wall_s on campaign-replicate"),
    Metric("campaigns.results.append_s", _T, "lower", "flush included; wall_s on campaign-replicate"),
    Metric("campaigns.results.finalize_s", _T, "lower", "wall_s and peak_rss_mb on campaign-replicate, campaign-resume"),
    Metric("campaigns.results.scan_s", _T, "lower", "wall_s on campaign-resume only"),
    # campaigns.aggregate
    Metric("campaigns.aggregate.fold_s", _T, "lower", "wall_s on campaign-replicate"),
    # fuzz
    Metric("fuzz.loop_self_s", _T, "lower", "items_per_s on fuzz-search"),
    Metric("fuzz.space.generate_s", _T, "lower", "items_per_s on fuzz-search"),
    Metric("fuzz.classify.execute_s", _T, "lower", "items_per_s on fuzz-search"),
    Metric("fuzz.corpus.state_write_s", _T, "lower", "I/O wait: the wall_s minus cpu_s gap on fuzz-search"),
    Metric("fuzz.shrink_s", _T, "lower", "0 unless the seed surfaces a finding"),
    Metric("fuzz.candidates", "count", "lower", "exact"),
    Metric("fuzz.executed", "count", "lower", "exact"),
    Metric("fuzz.duplicates", "count", "lower", "exact"),
    Metric("fuzz.skipped", "count", "lower", "exact; inadmissible or inapplicable"),
    Metric("fuzz.findings", "count", "lower", "exact; 0 on most seeds, each one adds shrink work"),
    Metric("fuzz.useful_share", "ratio", "higher", "status-ok over budget; items_per_s on fuzz-search"),
    # smr.serve
    Metric("smr.serve.loop_self_s", _T, "lower", "items_per_s on smr-serve"),
    Metric("smr.serve.arrivals_s", _T, "lower", "items_per_s on smr-serve"),
    Metric("smr.slot.compile_s", _T, "lower", "items_per_s on smr-serve"),
    Metric("smr.slot.build_s", _T, "lower", "items_per_s on smr-serve"),
    Metric("smr.slot.kernel_s", _T, "lower", "items_per_s on smr-serve"),
    Metric("smr.slots", "count", "lower", "exact"),
    Metric("smr.retries", "count", "lower", "smr.latency_p50/p99"),
    Metric("smr.rejected", "count", "lower", "exact"),
    Metric("smr.mean_batch", "count", "higher", "lowers messages per command, delays the first command of a batch"),
    Metric("smr.rounds_per_slot", "count", "lower", "smr.latency_p50/p99, smr.max_rate_ok"),
    Metric("smr.messages_per_command", "count", "lower", "items_per_s on smr-serve"),
    Metric("smr.backlog_at_end", "count", "lower", "offered minus committed"),
    Metric("smr.latency_p50", "units", "lower", "simulated, exact for a seed; a protocol change moves it, host speed must not"),
    Metric("smr.latency_p99", "units", "lower", "simulated, exact for a seed; limit 10 units"),
    Metric("smr.max_rate_ok", "cmds/unit", "higher", "simulated, exact for a seed"),
    # the trace itself
    Metric("trace.coverage", "ratio", "higher", "layer self time over traced wall; at least 0.90"),
    Metric("trace.overhead_share", "ratio", "lower", "traced over untraced in-process wall, minus 1"),
)

#: Counts that must repeat exactly for one seed (checked by --verify-repeat).
EXACT_LAYER_METRICS = tuple(
    metric.name
    for metric in PER_LAYER
    if metric.unit in ("count", "units", "cmds/unit")
    or metric.name in ("fuzz.useful_share", "campaigns.results.bytes_per_row")
)
