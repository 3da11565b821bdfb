"""SMR serving throughput: batched + pipelined vs slot-at-a-time.

Usage::

    python benchmarks/bench_smr.py                      # full measurement
    python benchmarks/bench_smr.py --budget 3           # CI smoke
    python benchmarks/bench_smr.py --check --budget 3   # perf gate

Each cell drains one fixed backlog of client commands through
``repro.smr.serve.run_serve`` twice: the ``slot`` arm decides one command
per consensus instance (``batch=1, depth=1`` — the classic
one-instance-per-command reading of Section 5.3), the ``pipelined`` arm
batches up to :data:`BATCH` commands per slot with :data:`DEPTH` slots in
flight.  Both arms must produce digest-equal state machines and identical
log digests (asserted on every measurement — the optimization is not
allowed to change what the service commits), and the pipelined arm must
sustain at least :data:`ACCEPTANCE_SPEEDUP` x the slot arm's command
throughput on the acceptance cell.

The gate measures "16x fewer kernel instances", so its cell must be one
where every slot still runs the kernel: the seed-dependent
``smr-pbft-n4-lossy``.  The two reliable cells are ones the planner
classes ``replicate`` — ``run_serve`` decides one instance per serve in
*both* arms there, so their wall-clock ratio only compares loop
bookkeeping (≈ 1.5x) and is reported, not gated, next to the exact
simulated figures that do not depend on the host: slots, instances run,
messages per command.

The report is *merged into* ``BENCH_engine.json`` as its ``smr`` section —
other sections (the engine-throughput cells) are preserved.  ``--check``
diffs every measured arm's commands/sec against the committed report
(override with ``--baseline``) and fails when one falls below
``(1 − tolerance) ×`` its committed figure; like the engine bench, the
gate writes ``BENCH_smr.check.json`` so it never clobbers its own
baseline.
"""

import argparse
import json
import sys
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, "src")

from repro.smr import ServeConfig, run_serve  # noqa: E402

#: Pipelined-arm knobs: max commands per slot, slots in flight.
BATCH = 16
DEPTH = 4

#: Commands in the drained backlog (all arrive at t=0 — pure throughput).
BACKLOG = 64

#: name, algorithm, n, b, scenario
CELLS = [
    ("smr-pbft-n4", "pbft", 4, 1, "fault-free"),
    ("smr-pbft-n4-byz", "pbft", 4, 1, "worst_case"),
    ("smr-pbft-n4-lossy", "pbft", 4, 1, "lossy_channel"),
]

ARMS = {
    "slot": {"batch": 1, "depth": 1},
    "pipelined": {"batch": BATCH, "depth": DEPTH},
}

ACCEPTANCE_CELL = "smr-pbft-n4-lossy"
ACCEPTANCE_SPEEDUP = 5.0


def serve_once(name: str, algorithm: str, n: int, b: int, scenario: str,
               arm: str):
    """One backlog drain; returns the ServeReport (digests checked)."""
    arrivals = [
        (0.0, ("set", f"key{i % 8}", i)) for i in range(BACKLOG)
    ]
    config = ServeConfig(
        algorithm=algorithm, n=n, b=b, scenario=scenario,
        seed=0, **ARMS[arm],
    )
    report = run_serve(config, arrivals=arrivals)
    assert not report.stalled, f"{name}/{arm} stalled"
    assert report.committed_commands == BACKLOG, f"{name}/{arm} dropped commands"
    assert report.digests_agree, f"{name}/{arm} replica divergence"
    return report


def measure(name: str, algorithm: str, n: int, b: int, scenario: str,
            arm: str, *, budget: Optional[int], seconds: float) -> Dict:
    """Commands/sec for one arm (best of 3 windows, or a fixed budget)."""

    def window(runs: int) -> tuple:
        start = perf_counter()
        for _ in range(runs):
            serve_once(name, algorithm, n, b, scenario, arm)
        elapsed = perf_counter() - start
        return (runs * BACKLOG) / elapsed, runs, elapsed

    if budget is not None:
        rate, runs, elapsed = window(budget)
        best = (rate, runs, elapsed)
    else:
        serve_once(name, algorithm, n, b, scenario, arm)  # warm-up
        best = (0.0, 0, 0.0)
        for _ in range(3):
            runs = 0
            start = perf_counter()
            while perf_counter() - start < seconds:
                serve_once(name, algorithm, n, b, scenario, arm)
                runs += 1
            elapsed = perf_counter() - start
            rate = (runs * BACKLOG) / elapsed
            if rate > best[0]:
                best = (rate, runs, elapsed)
    rate, runs, elapsed = best
    reference = serve_once(name, algorithm, n, b, scenario, arm)
    counters = reference.telemetry.counters
    return {
        "cell": name,
        "arm": arm,
        "batch": ARMS[arm]["batch"],
        "depth": ARMS[arm]["depth"],
        "backlog": BACKLOG,
        "runs": runs,
        "seconds": round(elapsed, 4),
        "commands_per_sec": round(rate, 2),
        "slots": reference.slots_committed,
        "instances_run": counters["smr.instances_run"],
        "messages_per_command": round(counters["smr.messages"] / BACKLOG, 2),
        "retries": reference.retries,
        "log_digest": reference.log_digest,
        "digest": reference.digest,
        "latency_p50": round(reference.latency["p50"], 4),
        "latency_p99": round(reference.latency["p99"], 4),
    }


def arm_key(sample: Dict) -> str:
    return f"{sample['cell']}/{sample['arm']}"


def load_baseline(path: str) -> Dict[str, float]:
    """``cell/arm`` → committed commands/sec from a report's smr section."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    rates: Dict[str, float] = {}
    for sample in report.get("smr", {}).get("cells", ()):
        rate = sample.get("commands_per_sec")
        if rate:
            rates[arm_key(sample)] = rate
    return rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget", type=int, default=None,
        help="fixed backlog drains per arm (default: time-window mode)",
    )
    parser.add_argument(
        "--seconds-per-arm", "--seconds", dest="seconds", type=float,
        default=1.0, metavar="S",
        help="measurement window per arm in time-window mode (default 1.0)",
    )
    parser.add_argument(
        "--cells", default=None, metavar="NAME[,NAME...]",
        help="measure only these cells (default: all)",
    )
    parser.add_argument(
        "--out", default=None,
        help="report path (default BENCH_engine.json, merged into its smr "
        "section; with --check, BENCH_smr.check.json so the gate never "
        "clobbers its own baseline)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="JSON",
        help="committed bench report to diff against (implied as "
        "BENCH_engine.json by --check)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5, metavar="FRAC",
        help="--check fails when a measured arm drops below "
        "(1 - FRAC) x its baseline commands/sec (default 0.5)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="regression gate: diff measured commands/sec against the "
        f"baseline report and assert the acceptance cell keeps "
        f"{ACCEPTANCE_SPEEDUP}x",
    )
    parser.add_argument(
        "--sessions", type=int, default=1, metavar="N",
        help="repeat the whole measurement N times and keep each arm's "
        "best session",
    )
    args = parser.parse_args(argv)
    if args.sessions < 1:
        parser.error("--sessions must be >= 1")

    known = {name for name, *_ in CELLS}
    selected = known
    if args.cells is not None:
        selected = {name.strip() for name in args.cells.split(",") if name.strip()}
        if not selected:
            parser.error(f"--cells selected no cells; known: {sorted(known)}")
        unknown = selected - known
        if unknown:
            parser.error(
                f"unknown cells {sorted(unknown)}; known: {sorted(known)}"
            )
    if args.check and args.baseline is None:
        args.baseline = "BENCH_engine.json"
    if args.out is None:
        partial = args.check or args.cells is not None
        args.out = "BENCH_smr.check.json" if partial else "BENCH_engine.json"
    baseline = load_baseline(args.baseline) if args.baseline else None

    best: Dict[tuple, Dict] = {}
    for _session in range(args.sessions):
        for name, algorithm, n, b, scenario in CELLS:
            if name not in selected:
                continue
            for arm in ARMS:
                sample = measure(
                    name, algorithm, n, b, scenario, arm,
                    budget=args.budget, seconds=args.seconds,
                )
                key = (name, arm)
                rate = sample["commands_per_sec"] or 0
                if key not in best or rate > (best[key]["commands_per_sec"] or 0):
                    best[key] = sample

    results: List[Dict] = []
    speedups: Dict[str, float] = {}
    for name, algorithm, n, b, scenario in CELLS:
        if name not in selected:
            continue
        rates = {}
        digests = {}
        for arm in ARMS:
            sample = best[(name, arm)]
            results.append(sample)
            rates[arm] = sample["commands_per_sec"]
            digests[arm] = (sample["log_digest"], sample["digest"])
        # The optimization must be invisible to the state machine: both
        # arms committed the identical command sequence and state.
        assert digests["slot"] == digests["pipelined"], (
            f"{name}: pipelined arm diverged from slot-at-a-time: {digests}"
        )
        if rates["slot"] and rates["pipelined"]:
            speedup = round(rates["pipelined"] / rates["slot"], 2)
            speedups[name] = speedup
            print(
                f"{name:18s} slot={rates['slot']:9.1f} cmd/s "
                f"pipelined={rates['pipelined']:9.1f} cmd/s "
                f"speedup={speedup:.2f}x digests-equal=True"
            )
            for arm in ARMS:
                sample = best[(name, arm)]
                print(
                    f"{'':18s} {arm:9s} {sample['slots']} slots, "
                    f"{sample['instances_run']} instance(s) run, "
                    f"{sample['messages_per_command']:g} messages/command"
                )

    acceptance = {
        "cell": ACCEPTANCE_CELL,
        "required_speedup": ACCEPTANCE_SPEEDUP,
        "measured_speedup": speedups.get(ACCEPTANCE_CELL),
        "pass": (
            speedups.get(ACCEPTANCE_CELL) is not None
            and speedups[ACCEPTANCE_CELL] >= ACCEPTANCE_SPEEDUP
        ),
    }
    smr_section = {
        "benchmark": "smr_serving",
        "budget": args.budget,
        "seconds_per_arm": None if args.budget else args.seconds,
        "merged_sessions": args.sessions,
        "batch": BATCH,
        "depth": DEPTH,
        "backlog": BACKLOG,
        "cells": results,
        "speedups": speedups,
        "acceptance": acceptance,
    }

    regressions: List[str] = []
    if baseline is not None:
        arms: Dict[str, Dict[str, float]] = {}
        for sample in results:
            rate = sample["commands_per_sec"]
            if not rate:
                continue
            key = arm_key(sample)
            committed = baseline.get(key)
            if committed is None:
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
        smr_section["baseline"] = {"path": args.baseline, "arms": arms}

    # Merge, never overwrite: the engine-throughput sections of an existing
    # report survive an smr refresh (and vice versa).
    report: Dict = {}
    try:
        with open(args.out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        pass
    report["smr"] = smr_section
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}; acceptance: {acceptance}")

    if args.check:
        for line in regressions:
            print(f"REGRESSION {line}", file=sys.stderr)
        if regressions:
            return 1
        # Unlike a raw rate, the speedup ratio survives slow hosts (both
        # arms share the window), so even a --budget smoke gates on it.
        if (
            acceptance["measured_speedup"] is not None
            and not acceptance["pass"]
        ):
            print("acceptance speedup not reached", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
