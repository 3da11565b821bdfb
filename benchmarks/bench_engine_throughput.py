"""Execution-kernel throughput: ``observe="full"`` vs ``observe="metrics"``.

Measures end-to-end runs/sec of the unified kernel on Table-1 cells under
both schedulers and both observation modes.  The metrics-only mode skips
``RoundRecord`` construction, predicate evaluation and per-round snapshot
dicts entirely — this bench quantifies what that buys campaign sweeps.

The acceptance cell (``table1-otr-n30``) is a sweep-scale point on Table 1
row 1 (OneThirdRule, benign model, ``n > 2f``): campaigns run resilience
sweeps at exactly this kind of size, and the kernel's metrics mode must
deliver ≥ 2x the full-observation throughput there.  The classic minimal
cells (PBFT ``(4,1,0)`` under an equivocator, FaB Paxos ``(6,1,0)``) are
reported alongside; their per-round cost is dominated by FLV semantics, so
their observation overhead — and therefore the speedup — is smaller.

Usage::

    python benchmarks/bench_engine_throughput.py                     # full run
    python benchmarks/bench_engine_throughput.py --budget 1          # CI smoke
    python benchmarks/bench_engine_throughput.py --cells table1-otr-n30 \
        --seconds-per-arm 0.5 --check                                # perf gate

``--check`` diffs every measured arm's runs/sec against the committed
``BENCH_engine.json`` (override with ``--baseline``) and fails when one
falls below ``(1 − tolerance) ×`` its committed figure — the CI perf-smoke
job calls this on the acceptance cell.  ``--baseline`` without ``--check``
just embeds the before/after comparison in the report (how the committed
file records each optimization pass).  Emits ``BENCH_engine.json``
(override with ``--out``).

Each cell additionally runs **backend arms**: the same coordinate as a
64-repetition campaign cell dispatched through
:func:`~repro.campaigns.runner.execute_chunk` under ``backend="scalar"``
(the per-run oracle) and ``backend="batch"`` (the PR-7 tiered batch
kernel), metrics observation, reported as rows/sec under the baseline keys
``cell/engine/metrics/{scalar,batch}``.  The batch acceptance gate requires
``batch ≥ 10x scalar`` on the acceptance cell (time-window mode only —
replicated execution makes whole-cell dispatch nearly free).

When the acceptance cell is measured, the report additionally carries a
``"profile"`` section (the ``profile-otr-n30`` arm): the cell's
phase-level span breakdown under ``observe="profile"`` on both engines.
It is informational and never consulted by the ``--check`` gate.

The ``cstate-*`` cells are **columnar-state arms**: sweep-scale
coordinates with seed-dependent delivery that the planner routes to the
columnar-state tier (the whole generic algorithm as one
``(runs × processes)`` array program) — ``cstate-<cell>`` on the timed
engine, ``cstate-lockstep-<cell>`` under the lockstep oracle policies.
Each batch sample records the tier the planner assigned (``"tier"``), and
every columnar-state arm must reach ``COLUMNAR_STATE_SPEEDUP`` (3x) the
scalar oracle arm measured beside it (time-window mode only, like the
other acceptance ratios); against the committed report they gate on
``--tolerance`` like any other arm.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.algorithms import build_fab_paxos, build_one_third_rule, build_pbft
from repro.engine.assembly import build_instance
from repro.engine.kernel import OBSERVE_FULL, OBSERVE_METRICS, run_instance
from repro.engine.scheduler import LockstepScheduler, TimedScheduler
from repro.eventsim.network import PartialSynchronyNetwork, UniformLatency
from repro.scenarios import compile_scenario, get_scenario

#: The acceptance cell: metrics mode must be ≥ 2x full observation here.
ACCEPTANCE_CELL = "table1-otr-n30"
ACCEPTANCE_SPEEDUP = 2.0

#: The batch-backend gate: whole-cell batch dispatch must be ≥ 10x the
#: scalar per-run oracle on the acceptance cell (metrics observation).
BATCH_ACCEPTANCE_SPEEDUP = 10.0

CELLS = (
    # (name, builder, n, byzantine strategy for the last b processes,
    #  registered scenario — compiled per run when set, as campaigns do)
    ("table1-otr-n30", build_one_third_rule, 30, None, None),
    ("table1-pbft-n4-byz", build_pbft, 4, "equivocator", None),
    ("table1-fab-n6-byz", build_fab_paxos, 6, "equivocator", None),
    # The adversarial cell: a compiled partition/GST scenario at sweep
    # scale, proving scenario compilation stays off the hot path.
    ("scenario-partition-pbft-n10", build_pbft, 10, None, "partition_heal"),
)

#: Runs per backend arm: one campaign cell's worth of repetitions per
#: ``execute_chunk`` dispatch.
BACKEND_RUNS = 64

BACKENDS = ("scalar", "batch")

#: Campaign-axis coordinates matching each bench cell: the same algorithm
#: and fault model, under a registered scenario, so the backend arms
#: measure exactly what campaign sweeps dispatch.
BACKEND_CELLS = {
    "table1-otr-n30": ("one-third-rule", (30, 0, 9), "fault-free"),
    "table1-pbft-n4-byz": ("pbft", (4, 1, 0), "worst_case"),
    "table1-fab-n6-byz": ("fab-paxos", (6, 1, 0), "worst_case"),
    "scenario-partition-pbft-n10": ("pbft", (10, 3, 0), "partition_heal"),
}

#: Columnar-state cells: sweep-scale coordinates (algorithm, model,
#: scenario, engine) whose delivery is seed-dependent but whose generic
#: algorithm the planner can prove expressible as one (runs × processes)
#: array program.  Backend arms only (scalar oracle vs batch).
COLUMNAR_STATE_CELLS = {
    "cstate-otr-n30-flaky": ("one-third-rule", (30, 0, 9), "flaky_gst", "timed"),
    "cstate-otr-n30-lossy": ("one-third-rule", (30, 0, 9), "lossy_channel", "timed"),
    "cstate-class2-n21-flaky": ("class-2", (21, 2, 2), "flaky_gst", "timed"),
    "cstate-class3-n21-lossy": ("class-3", (21, 2, 2), "lossy_channel", "timed"),
    # The GST scenario: an adaptive liar whose per-run vote tally rides the
    # array program as a (runs × values) count column.
    "cstate-class2-n21-async": ("class-2", (21, 2, 2), "async_then_sync", "timed"),
    "cstate-lockstep-otr-n30-flaky": (
        "one-third-rule", (30, 0, 9), "flaky_gst", "lockstep",
    ),
    "cstate-lockstep-class2-n21-lossy": (
        "class-2", (21, 2, 2), "lossy_channel", "lockstep",
    ),
    "cstate-lockstep-class3-n21-async": (
        "class-3", (21, 2, 2), "async_then_sync", "lockstep",
    ),
}

#: The columnar-state gate: a batch arm the planner runs columnar-state
#: must reach 3x the scalar oracle arm of the same cell.
COLUMNAR_STATE_SPEEDUP = 3.0


def make_runner(
    builder,
    n: int,
    byz: Optional[str],
    engine: str,
    observe: str,
    scenario: Optional[str] = None,
    telemetry=None,
) -> Callable[[], None]:
    """One closure executing the cell once (assembly included, as sweeps do)."""
    spec = builder(n)
    model = spec.parameters.model
    parameters, config = spec.parameters, spec.config

    if scenario is not None:
        scenario_spec = get_scenario(scenario)

        def run() -> None:
            compiled = compile_scenario(scenario_spec, model, engine, 7)
            instance = build_instance(
                parameters,
                compiled.honest_values(),
                config=config,
                byzantine=compiled.byzantine,
            )
            outcome = run_instance(
                instance,
                compiled.scheduler,
                max_phases=compiled.max_phases(),
                observe=observe,
                crash_schedule=compiled.crash_schedule,
                telemetry=telemetry,
            )
            assert outcome.agreement_holds

        return run

    byzantine = {model.n - 1 - i: byz for i in range(model.b)} if byz else {}
    values = {
        pid: f"v{pid % 2}" for pid in model.processes if pid not in byzantine
    }

    def run() -> None:
        instance = build_instance(
            parameters, values, config=config, byzantine=byzantine
        )
        if engine == "lockstep":
            scheduler = LockstepScheduler()
        else:
            scheduler = TimedScheduler(
                PartialSynchronyNetwork(
                    UniformLatency(0.5, 2.0), gst=0.0, delta=2.0, seed=7
                ),
                round_duration=2.5,
            )
        outcome = run_instance(
            instance, scheduler, max_phases=12, observe=observe,
            telemetry=telemetry,
        )
        assert outcome.agreement_holds

    return run


def make_backend_runner(cell: str, engine: str, backend: str):
    """One closure dispatching a 64-run campaign cell through a backend.

    Returns ``(run, tier)`` where ``tier`` is the batch tier the planner
    assigns the cell (``None`` for the scalar oracle arm, which bypasses
    the planner entirely).  Recording the tier per sample shows which
    executor produced a figure — the columnar-state gate keys off it.
    """
    from repro.campaigns import CampaignSpec
    from repro.campaigns.runner import execute_chunk
    from repro.engine.batch import plan_for_run

    algorithm, model, scenario = (
        BACKEND_CELLS.get(cell) or COLUMNAR_STATE_CELLS[cell][:3]
    )
    spec = CampaignSpec(
        name=f"bench-{cell}",
        algorithms=(algorithm,),
        models=(model,),
        engines=(engine,),
        scenarios=(scenario,),
        repetitions=BACKEND_RUNS,
        seed=7,
    )
    runs = tuple(spec.iter_runs())
    assert len(runs) == BACKEND_RUNS
    tier = plan_for_run(runs[0]).mode if backend == "batch" else None

    def run() -> None:
        rows = execute_chunk(runs, False, backend)
        assert len(rows) == BACKEND_RUNS
        assert all(row["status"] == "ok" for row in rows)

    return run, tier


def measure_backend(
    cell: str, engine: str, backend: str, *, budget: Optional[int], seconds: float
) -> Dict:
    """Rows/sec of one backend arm (each ``run()`` executes a whole cell).

    In budget mode the budget counts *rows*, so a ``--budget 150`` smoke
    dispatches ⌈150 / 64⌉ chunks per arm rather than 150 × 64 rows.
    """
    chunks = max(1, round(budget / BACKEND_RUNS)) if budget is not None else None
    runner, tier = make_backend_runner(cell, engine, backend)
    sample = measure(runner, budget=chunks, seconds=seconds)
    sample["runs"] *= BACKEND_RUNS
    if sample["runs_per_sec"]:
        sample["runs_per_sec"] = round(sample["runs_per_sec"] * BACKEND_RUNS, 2)
    sample.update(cell=cell, engine=engine, observe="metrics", backend=backend)
    if tier is not None:
        sample["tier"] = tier
    return sample


def profile_breakdown(runs: int = 5) -> Dict:
    """The ``profile-otr-n30`` arm: phase spans of the acceptance cell.

    Runs the acceptance cell under ``observe="profile"`` on both engines,
    folding every run's spans into one shared telemetry registry, and
    returns the per-phase call counts and total/self milliseconds.  The
    section is informational — it lands in the report under ``"profile"``,
    *outside* the ``cells`` list the ``--check`` gate consumes, so the
    committed baseline never gates on phase timings.
    """
    name, builder, n, byz, scenario = CELLS[0]
    assert name == ACCEPTANCE_CELL
    from repro.observability import Telemetry

    section: Dict[str, object] = {
        "arm": f"profile-{name.removeprefix('table1-')}",
        "cell": name,
        "runs_per_engine": runs,
        "engines": {},
    }
    for engine in ("lockstep", "timed"):
        telemetry = Telemetry()
        run = make_runner(
            builder, n, byz, engine, "profile", scenario, telemetry=telemetry
        )
        for _ in range(runs):
            run()
        breakdown = {}
        for span in telemetry.span_names:
            stats = telemetry.span_stats(span)
            breakdown[span] = {
                "calls": stats["calls"],
                "total_ms": round(stats["total_s"] * 1000, 3),
                "self_ms": round(stats["self_s"] * 1000, 3),
            }
        section["engines"][engine] = breakdown
    return section


def measure(run: Callable[[], None], *, budget: Optional[int], seconds: float) -> Dict:
    """Runs/sec of ``run``, by fixed run count (``budget``) or a time window.

    Time-window mode takes the best of three windows: machine noise only
    ever slows a window down, so the maximum is the least-biased estimate
    (and it biases both observation modes identically).
    """
    run()  # warmup (also primes shared structure / coercion caches)
    if budget is not None:
        start = time.perf_counter()
        for _ in range(budget):
            run()
        elapsed = time.perf_counter() - start
        return {
            "runs": budget,
            "seconds": round(elapsed, 4),
            "runs_per_sec": round(budget / elapsed, 2) if elapsed else None,
        }
    best = None
    window = seconds / 3
    for _ in range(3):
        executed = 0
        start = time.perf_counter()
        while time.perf_counter() - start < window:
            run()
            executed += 1
        elapsed = time.perf_counter() - start
        rate = executed / elapsed
        if best is None or rate > best[0]:
            best = (rate, executed, elapsed)
    return {
        "runs": best[1],
        "seconds": round(best[2], 4),
        "runs_per_sec": round(best[0], 2),
    }


def arm_key(sample: Dict) -> str:
    """``cell/engine/observe[/backend]`` — backend arms get the suffix so
    the classic keys (and their committed baselines) stay stable."""
    key = f"{sample['cell']}/{sample['engine']}/{sample['observe']}"
    backend = sample.get("backend")
    return f"{key}/{backend}" if backend else key


def load_baseline(path: str) -> Dict[str, float]:
    """``cell/engine/observe[/backend]`` → committed runs/sec."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    rates: Dict[str, float] = {}
    for sample in report.get("cells", ()):
        rate = sample.get("runs_per_sec")
        if rate:
            rates[arm_key(sample)] = rate
    return rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget", type=int, default=None,
        help="fixed number of runs per arm (default: time-window mode)",
    )
    parser.add_argument(
        "--seconds-per-arm", "--seconds", dest="seconds", type=float,
        default=1.5, metavar="S",
        help="measurement window per arm in time-window mode (default 1.5)",
    )
    parser.add_argument(
        "--cells", default=None, metavar="NAME[,NAME...]",
        help="measure only these cells (default: all)",
    )
    parser.add_argument(
        "--out", default=None,
        help="report path (default BENCH_engine.json; with --check, "
        "BENCH_engine.check.json so the gate never clobbers its own "
        "baseline)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="JSON",
        help="committed bench report to diff against (embedded in the "
        "output report; implied as BENCH_engine.json by --check)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5, metavar="FRAC",
        help="--check fails when a measured arm drops below "
        "(1 - FRAC) x its baseline runs/sec (default 0.5)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="regression gate: diff measured runs/sec against the baseline "
        f"report and assert the acceptance cell keeps {ACCEPTANCE_SPEEDUP}x",
    )
    parser.add_argument(
        "--sessions", type=int, default=1, metavar="N",
        help="repeat the whole measurement N times and keep each arm's "
        "best session (noise only ever slows a window down; how the "
        "committed figures are produced on shared hosts)",
    )
    args = parser.parse_args(argv)
    if args.sessions < 1:
        parser.error("--sessions must be >= 1")

    known = {name for name, *_ in CELLS} | set(COLUMNAR_STATE_CELLS)
    selected = known
    if args.cells is not None:
        selected = {name.strip() for name in args.cells.split(",") if name.strip()}
        if not selected:
            # An empty selection would measure nothing and turn --check
            # into a vacuous pass.
            parser.error(f"--cells selected no cells; known: {sorted(known)}")
        unknown = selected - known
        if unknown:
            parser.error(
                f"unknown cells {sorted(unknown)}; known: {sorted(known)}"
            )
    if args.check and args.baseline is None:
        args.baseline = "BENCH_engine.json"
    if args.out is None:
        # Only a full-cell measurement run defaults onto the committed
        # report; --check and --cells subsets must never clobber the very
        # baseline later --check runs gate against.
        partial = args.check or args.cells is not None
        args.out = "BENCH_engine.check.json" if partial else "BENCH_engine.json"
    baseline = load_baseline(args.baseline) if args.baseline else None

    best: Dict[tuple, Dict] = {}
    for session in range(args.sessions):
        for name, builder, n, byz, scenario in CELLS:
            if name not in selected:
                continue
            for engine in ("lockstep", "timed"):
                for observe in (OBSERVE_FULL, OBSERVE_METRICS):
                    sample = measure(
                        make_runner(builder, n, byz, engine, observe, scenario),
                        budget=args.budget,
                        seconds=args.seconds,
                    )
                    sample.update(cell=name, engine=engine, observe=observe)
                    key = (name, engine, observe)
                    rate = sample["runs_per_sec"] or 0
                    if key not in best or rate > (best[key]["runs_per_sec"] or 0):
                        best[key] = sample
                for backend in BACKENDS:
                    sample = measure_backend(
                        name, engine, backend,
                        budget=args.budget, seconds=args.seconds,
                    )
                    key = (name, engine, OBSERVE_METRICS, backend)
                    rate = sample["runs_per_sec"] or 0
                    if key not in best or rate > (best[key]["runs_per_sec"] or 0):
                        best[key] = sample
        for name, (*_cell, engine) in COLUMNAR_STATE_CELLS.items():
            if name not in selected:
                continue
            for backend in BACKENDS:
                sample = measure_backend(
                    name, engine, backend,
                    budget=args.budget, seconds=args.seconds,
                )
                key = (name, engine, OBSERVE_METRICS, backend)
                rate = sample["runs_per_sec"] or 0
                if key not in best or rate > (best[key]["runs_per_sec"] or 0):
                    best[key] = sample

    results: List[Dict] = []
    speedups: Dict[str, float] = {}
    for name, builder, n, byz, scenario in CELLS:
        if name not in selected:
            continue
        for engine in ("lockstep", "timed"):
            rates = {}
            for observe in (OBSERVE_FULL, OBSERVE_METRICS):
                sample = best[(name, engine, observe)]
                results.append(sample)
                rates[observe] = sample["runs_per_sec"]
            if rates[OBSERVE_FULL] and rates[OBSERVE_METRICS]:
                speedup = round(rates[OBSERVE_METRICS] / rates[OBSERVE_FULL], 2)
                speedups[f"{name}/{engine}"] = speedup
                print(
                    f"{name:22s} {engine:9s} "
                    f"full={rates[OBSERVE_FULL]:9.1f}/s "
                    f"metrics={rates[OBSERVE_METRICS]:9.1f}/s "
                    f"speedup={speedup:.2f}x"
                )
            backend_rates = {}
            for backend in BACKENDS:
                sample = best[(name, engine, OBSERVE_METRICS, backend)]
                results.append(sample)
                backend_rates[backend] = sample["runs_per_sec"]
            if backend_rates["scalar"] and backend_rates["batch"]:
                speedup = round(
                    backend_rates["batch"] / backend_rates["scalar"], 2
                )
                speedups[f"{name}/{engine}/batch"] = speedup
                print(
                    f"{name:22s} {engine:9s} "
                    f"scalar={backend_rates['scalar']:9.1f}/s "
                    f"batch={backend_rates['batch']:9.1f}/s "
                    f"speedup={speedup:.2f}x"
                )

    cstate_arms: Dict[str, Dict] = {}
    for name, (*_cell, engine) in COLUMNAR_STATE_CELLS.items():
        if name not in selected:
            continue
        backend_rates = {}
        for backend in BACKENDS:
            sample = best[(name, engine, OBSERVE_METRICS, backend)]
            results.append(sample)
            backend_rates[backend] = sample["runs_per_sec"]
        if backend_rates["scalar"] and backend_rates["batch"]:
            speedup = round(
                backend_rates["batch"] / backend_rates["scalar"], 2
            )
            speedups[f"{name}/{engine}/batch"] = speedup
            tier = best[(name, engine, OBSERVE_METRICS, "batch")].get("tier")
            cstate_arms[f"{name}/{engine}"] = {
                "tier": tier,
                "measured_speedup": speedup,
                "pass": (
                    tier == "columnar-state"
                    and speedup >= COLUMNAR_STATE_SPEEDUP
                ),
            }
            print(
                f"{name:32s} {engine:9s} "
                f"scalar={backend_rates['scalar']:9.1f}/s "
                f"batch={backend_rates['batch']:9.1f}/s "
                f"speedup={speedup:.2f}x [{tier}]"
            )

    acceptance_key = f"{ACCEPTANCE_CELL}/lockstep"
    acceptance = {
        "cell": acceptance_key,
        "required_speedup": ACCEPTANCE_SPEEDUP,
        "measured_speedup": speedups.get(acceptance_key),
        "pass": (
            speedups.get(acceptance_key) is not None
            and speedups[acceptance_key] >= ACCEPTANCE_SPEEDUP
        ),
    }
    batch_key = f"{ACCEPTANCE_CELL}/lockstep/batch"
    batch_acceptance = {
        "cell": batch_key,
        "required_speedup": BATCH_ACCEPTANCE_SPEEDUP,
        "measured_speedup": speedups.get(batch_key),
        "pass": (
            speedups.get(batch_key) is not None
            and speedups[batch_key] >= BATCH_ACCEPTANCE_SPEEDUP
        ),
    }
    report = {
        "benchmark": "engine_throughput",
        "budget": args.budget,
        "seconds_per_arm": None if args.budget else args.seconds,
        "merged_sessions": args.sessions,
        "cells": results,
        "speedups": speedups,
        "acceptance": acceptance,
        "batch_acceptance": batch_acceptance,
    }
    if cstate_arms:
        report["columnar_state_acceptance"] = {
            "required_speedup": COLUMNAR_STATE_SPEEDUP,
            "arms": cstate_arms,
            "pass": all(arm["pass"] for arm in cstate_arms.values()),
        }
    if ACCEPTANCE_CELL in selected:
        report["profile"] = profile_breakdown(runs=args.budget or 5)

    regressions: List[str] = []
    if baseline is not None:
        # Before/after arms: every measured arm next to its committed figure.
        arms: Dict[str, Dict[str, float]] = {}
        for sample in results:
            rate = sample["runs_per_sec"]
            if not rate:
                continue
            key = arm_key(sample)
            committed = baseline.get(key)
            if committed is None:
                # A measured arm the baseline never recorded cannot be
                # gated; under --check that is a gate failure (refresh the
                # committed report), never a vacuous pass.
                if args.check:
                    regressions.append(f"{key}: no baseline entry")
                else:
                    print(
                        f"warning: no baseline entry for {key}",
                        file=sys.stderr,
                    )
                continue
            arms[key] = {
                "baseline": committed,
                "measured": rate,
                "ratio": round(rate / committed, 2),
            }
            if rate < (1.0 - args.tolerance) * committed:
                regressions.append(
                    f"{key}: {rate:.1f}/s < (1 - {args.tolerance:g}) x "
                    f"{committed:.1f}/s committed"
                )
        report["baseline"] = {"path": args.baseline, "arms": arms}

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}; acceptance: {acceptance}")

    if args.check:
        for line in regressions:
            print(f"REGRESSION {line}", file=sys.stderr)
        if regressions:
            return 1
        # A 1-run --budget smoke has no meaningful rate; only time-window
        # measurements gate on the acceptance speedup.
        if (
            args.budget is None
            and acceptance["measured_speedup"] is not None
            and not acceptance["pass"]
        ):
            print("acceptance speedup not reached", file=sys.stderr)
            return 1
        if (
            args.budget is None
            and batch_acceptance["measured_speedup"] is not None
            and not batch_acceptance["pass"]
        ):
            print("batch acceptance speedup not reached", file=sys.stderr)
            return 1
        if args.budget is None and not all(
            arm["pass"] for arm in cstate_arms.values()
        ):
            print("columnar-state acceptance speedup not reached", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
