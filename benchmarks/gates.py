"""The perf gates, each written once as a named, measured check.

A gate guards a speed ratio, a throughput floor or a same-bytes check of the
batch tiers and of ``smr serve``'s batched, pipelined instance sequence; its
function returns the measured figure and whether the gate holds.  Run as a
script, each arm prints its rate in its median window as it is measured, each
gate prints ``ok`` / ``MISS``, name and figure, and the exit status is 1 on
any miss; a gate that raises is a miss showing its message::

    PYTHONPATH=src python benchmarks/gates.py
"""

import sys
import time
from functools import cache
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Tuple

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from paper import check  # noqa: E402
from repro.algorithms import build_one_third_rule, build_pbft  # noqa: E402
from repro.campaigns import CampaignSpec  # noqa: E402
from repro.campaigns.runner import execute_chunk  # noqa: E402
from repro.engine import (LockstepScheduler, TimedScheduler, build_instance,  # noqa: E402
                          run_instance)
from repro.engine.batch.plan import plan_for_run  # noqa: E402
from repro.eventsim import NetworkSpec  # noqa: E402
from repro.scenarios import compile_scenario, get_scenario, split_values  # noqa: E402
from repro.smr import ServeConfig, run_serve  # noqa: E402

#: Kernel cells: ``builder, n, scenario`` (none: a v0/v1 split, 12 phases, default network).
KERNEL_CELLS = {"table1-otr-n30": (build_one_third_rule, 30, None),
                "scenario-partition-pbft-n10": (build_pbft, 10, "partition_heal")}
#: Cells run as one campaign chunk of ``CHUNK`` repetitions: ``algorithm, model, scenario``;
#: the seed-dependent ``CSTATE_CELLS`` run as one (runs × processes) array program.
CHUNK = 64
CHUNK_CELLS = {"table1-otr-n30": ("one-third-rule", (30, 0, 9), "fault-free"),
               "scenario-partition-pbft-n10": ("pbft", (10, 3, 0), "partition_heal")}
OTR = ("one-third-rule", (30, 0, 9))
CLASS2, CLASS3 = ("class-2", (21, 2, 2)), ("class-3", (21, 2, 2))
CSTATE_CELLS = {
    "cstate-otr-n30-flaky": (*OTR, "flaky_gst", "timed"),
    "cstate-otr-n30-lossy": (*OTR, "lossy_channel", "timed"),
    "cstate-class2-n21-flaky": (*CLASS2, "flaky_gst", "timed"),
    "cstate-class3-n21-lossy": (*CLASS3, "lossy_channel", "timed"),
    "cstate-class2-n21-async": (*CLASS2, "async_then_sync", "timed"),
    "cstate-lockstep-otr-n30-flaky": (*OTR, "flaky_gst", "lockstep"),
    "cstate-lockstep-class2-n21-lossy": (*CLASS2, "lossy_channel", "lockstep"),
    "cstate-lockstep-class3-n21-async": (*CLASS3, "async_then_sync", "lockstep"),
}
CHUNK_CELLS.update({cell: coords[:3] for cell, coords in CSTATE_CELLS.items()})

#: Serve cells (``pbft``, n = 4, b = 1) draining ``BACKLOG`` commands: ``slot``
#: decides one a slot, ``pipelined`` up to 16 a slot with 4 slots in flight.
BACKLOG = 64
SERVE_CELLS = {"smr-pbft-n4": "fault-free", "smr-pbft-n4-byz": "worst_case",
               "smr-pbft-n4-lossy": "lossy_channel"}
SERVE_ARMS = {"slot": {"batch": 1, "depth": 1}, "pipelined": {"batch": 16, "depth": 4}}

#: Runs/s (cmd/s for serve arms) the retired benches last committed; floor: ``FLOOR`` x.
FLOOR = 0.1
COMMITTED = {f"{cell}/{arm}": figure for cell, arms in {
    "table1-otr-n30/lockstep": (502.39, 995.81, 914.56, 55222.4),
    "table1-otr-n30/timed": (388.96, 872.59, 850.56, 49836.8),
    "scenario-partition-pbft-n10/lockstep": (826.71, 1038.75, 1055.36, 62719.36),
    "scenario-partition-pbft-n10/timed": (669.2, 908.62, 887.04, 53984.0),
    "cstate-otr-n30-flaky/timed": (None, None, 764.8, 11168.0),
    "cstate-otr-n30-lossy/timed": (None, None, 177.28, 2333.44),
    "cstate-lockstep-otr-n30-flaky/lockstep": (None, None, 1000.96, 18308.48),
}.items() for arm, figure in zip(("full", "metrics", "scalar", "batch"), arms) if figure}
SERVE_COMMITTED = {f"{cell}/{arm}": figure for cell, arms in {
    "smr-pbft-n4": (79081.49, 123770.62), "smr-pbft-n4-byz": (83315.16, 128333.68),
    "smr-pbft-n4-lossy": (376.4, 3520.55)}.items() for arm, figure in zip(SERVE_ARMS, arms)}
#: The floored arms and both arms of each cstate cell: every engine arm timed.
ENGINE_ARMS = sorted({*COMMITTED, *(f"{cell}/{coords[3]}/{kind}" for cell, coords
                                     in CSTATE_CELLS.items() for kind in ("scalar", "batch"))})

def chunk_runs(cell: str, engine: str) -> tuple:
    algorithm, model, scenario = CHUNK_CELLS[cell]
    return tuple(CampaignSpec(
        name=f"gate-{cell}", algorithms=(algorithm,), models=(model,), engines=(engine,),
        scenarios=(scenario,), repetitions=CHUNK, seed=7).iter_runs())


def require(holds: bool, failure: str) -> None:
    if not holds:
        raise AssertionError(failure)


def runner(key: str) -> Tuple[Callable[[], None], int, str, set]:
    """``(call, items a call, unit, digests the calls commit)`` of an arm: a drain of
    the backlog, a ``scalar`` / ``batch`` chunk, or one run under ``full`` / ``metrics``."""
    *prefix, kind = key.split("/")
    digests: set = set()
    if kind in SERVE_ARMS:
        config = ServeConfig(algorithm="pbft", n=4, b=1, scenario=SERVE_CELLS[prefix[0]],
                             seed=0, **SERVE_ARMS[kind])
        arrivals = [(0.0, ("set", f"key{i % 8}", i)) for i in range(BACKLOG)]

        def drain() -> None:
            report = run_serve(config, arrivals=arrivals)
            require(not report.stalled, f"{key} stalled")
            require(report.committed_commands == BACKLOG, f"{key} dropped commands")
            require(report.digests_agree, f"{key} replica divergence")
            digests.add((report.log_digest, report.digest))

        return drain, BACKLOG, "drain", digests
    cell, engine = prefix
    if kind in ("scalar", "batch"):
        runs = chunk_runs(cell, engine)

        def chunk() -> None:
            rows = execute_chunk(runs, False, kind)
            require(len(rows) == CHUNK and all(row["status"] == "ok" for row in rows),
                    f"{key}: not {CHUNK} ok rows")

        return chunk, CHUNK, "chunk", digests
    builder, n, scenario = KERNEL_CELLS[cell]
    spec = builder(n)
    model, named = spec.parameters.model, get_scenario(scenario) if scenario else None

    def run() -> None:
        byzantine, phases, crashes = {}, 12, None
        if named:
            compiled = compile_scenario(named, model, engine, 7)
            byzantine, scheduler = compiled.byzantine, compiled.scheduler
            phases, crashes = compiled.max_phases(), compiled.crash_schedule
        else:
            scheduler = (LockstepScheduler() if engine == "lockstep"
                         else TimedScheduler(NetworkSpec().build(7)))
        instance = build_instance(spec.parameters, split_values(model, byzantine),
                                  config=spec.config, byzantine=byzantine)
        outcome = run_instance(instance, scheduler, max_phases=phases, observe=kind,
                               crash_schedule=crashes)
        require(outcome.agreement_holds, f"{key} broke agreement")

    return run, 1, "run", digests


#: Each fast arm is timed in alternating windows with its slow partner (a shared
#: host's speed drifts; adjacent windows share it); medians drop the cold first one.
PARTNER = {"metrics": "full", "batch": "scalar", "pipelined": "slot"}
SHAPE = {"run": (30, 5), "chunk": (3, 1), "drain": (5, 2)}  # (windows, calls a window)


@cache
def windows(fast_key: str) -> Dict[str, Tuple[int, List[float], set]]:
    """``key -> (items a call, seconds a call in each window, digests)``, both arms."""
    prefix, kind = fast_key.rsplit("/", 1)
    arms = {key: (*runner(key), []) for key in (fast_key, f"{prefix}/{PARTNER[kind]}")}
    count, calls = SHAPE[arms[fast_key][2]]
    for _ in range(count):
        for call, _per, _unit, _digests, seconds in arms.values():
            start = time.perf_counter()
            for _ in range(calls):
                call()
            seconds.append((time.perf_counter() - start) / calls)
    for key, (_call, per, unit, _digests, seconds) in arms.items():
        mid = median(seconds)
        print(f"      arm  {key:<46} {per / mid:>10.1f}/s {mid * 1000:>8.2f} ms/{unit}", flush=True)
    return {key: (per, seconds, digests) for key, (_, per, _, digests, seconds) in arms.items()}


def rate(key: str) -> float:
    """Items/s of an arm in its median window."""
    prefix, kind = key.rsplit("/", 1)
    fast = next(fast for fast, slow in PARTNER.items() if kind in (fast, slow))
    per, seconds, _digests = windows(f"{prefix}/{fast}")[key]
    return per / median(seconds)


def speedup(fast_key: str) -> float:
    """The median over windows of the slow partner's time over ``fast_key``'s."""
    (_, fast, _), (_, slow, _) = windows(fast_key).values()
    return median(s / f for f, s in zip(fast, slow))


def at_least(ratio: float, threshold: float, where: str = "") -> Tuple[str, bool]:
    return f"{ratio:.2f}x (>= {threshold:g}x{where})", ratio >= threshold


def floors(committed: dict) -> Tuple[str, bool]:
    """The least ``measured / committed`` over the arms, against ``FLOOR``."""
    margin, key = min((rate(key) / figure, key) for key, figure in committed.items())
    return f"{len(committed)} arms, least {margin:.2f}x committed ({key})", margin >= FLOOR


def cstate_speedups() -> Tuple[str, bool]:
    """Each cstate cell is planned columnar-state and runs 3x its scalar arm."""
    for cell, (*_coords, engine) in CSTATE_CELLS.items():
        tier = plan_for_run(chunk_runs(cell, engine)[0]).mode
        if tier != "columnar-state":
            return f"{cell} planned {tier}", False
    least, cell = min((speedup(f"{cell}/{engine}/batch"), cell)
                      for cell, (*_coords, engine) in CSTATE_CELLS.items())
    return at_least(least, 3.0, f", least: {cell}")


def runner_checks() -> Tuple[str, bool]:
    """Every run of every engine arm kept agreement; every chunk gave 64 ok rows."""
    for key in ENGINE_ARMS:
        rate(key)
    return f"{len(ENGINE_ARMS)} arms, each call checked", True


def serve_digests() -> Tuple[str, bool]:
    """Every drain commits the backlog; a cell's two arms commit the same bytes."""
    split = [cell for cell in SERVE_CELLS if len(set().union(
        *(digests for _per, _seconds, digests in windows(f"{cell}/pipelined").values()))) != 1]
    return (f"digests differ on {split}" if split else
            f"{len(SERVE_CELLS)} cells x 2 arms digest-equal"), not split


#: Gate name -> its function, which returns ``(measured figure, holds)``.
GATES: Dict[str, Callable[[], Tuple[object, bool]]] = {
    "G1-metrics-2x-full": lambda: at_least(speedup("table1-otr-n30/lockstep/metrics"), 2.0),
    "G2-batch-10x-scalar": lambda: at_least(speedup("table1-otr-n30/lockstep/batch"), 10.0),
    "G3-cstate-3x-scalar": cstate_speedups,
    "G4-engine-floors": lambda: floors(COMMITTED),
    "G5-runner-checks": runner_checks,
    "G6-serve-digests": serve_digests,
    "G7-pipelined-5x-slot": lambda: at_least(speedup("smr-pbft-n4-lossy/pipelined"), 5.0),
    "G8-serve-floors": lambda: floors(SERVE_COMMITTED),
}


def main(gates: Dict[str, Callable] = GATES) -> int:
    missed = 0
    for name, measure in gates.items():
        figure, holds = check(measure)
        missed += not holds
        print(f"{'ok' if holds else 'MISS':<4}  {name:<22} {figure}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
