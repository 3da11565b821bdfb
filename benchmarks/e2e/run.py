"""End-to-end benchmark driver: ``python benchmarks/e2e/run.py``.

Each measured item is the real CLI (``python -m repro.cli ...``) in a fresh
process, started with ``Popen`` and reaped with ``wait4`` so wall time, CPU
of the whole process tree and peak RSS come from one call.  Two ways in:

* the contract BENCHMARK.json names — ``--workload W --seed N --seconds S
  --trace 0|1`` — measures one workload for ``S`` seconds (or makes its one
  traced run) and prints a single JSON line last;
* no ``--workload`` runs every workload (``--repeats`` launches each, then
  the traced run), prints all metrics and optionally writes a report;
  ``--verify-repeat`` does that twice and compares the two sets.

The measured commands are forked by ``launcher.py``, a process that stays
tiny: a child's ``ru_maxrss`` starts at the resident size of whatever
forked it, so this driver (or pytest) must not be the one.  What needs
:mod:`repro` — inputs, oracle, tracing — runs in helper processes of its
own.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
BENCH_ROOT = HERE.parent
REPO = BENCH_ROOT.parent
SRC = REPO / "src"
WORK_ROOT = HERE / ".work"

if __package__ in (None, ""):
    # Import siblings as the ``e2e`` package; the script's own directory
    # must not lead sys.path or ``trace.py`` would shadow the stdlib's.
    sys.path[0] = str(BENCH_ROOT)

from e2e import workloads as W  # noqa: E402
from e2e.trace import targets_for  # noqa: E402  (tables only; repro stays unimported)

#: A warm-up launch may take this long; later launches 10x their warm-up.
WARMUP_CAP_S = 120.0
TIMEOUT_FACTOR = 10.0
TIMEOUT_FLOOR_S = 10.0
#: Input generation is timed this many times per set (median reported).
GENERATIONS = 3
PROBE_REPEATS = 3
REPORT_SCHEMA = "e2e-report/1"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH_ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Settings that change which code runs would make sets incomparable;
    # and users run with bytecode caching on, so the launches do too (the
    # warm-up compiles, later launches load ``__pycache__``).
    for name in ("REPRO_BACKEND", "REPRO_SLOW_SCHEDULER", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


# ----------------------------------------------------------------- launch


@dataclass
class Launch:
    rc: Optional[int]  # None: killed by the timeout
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    started_at: float  # time.time() just before the fork


class Launcher:
    """Client of ``launcher.py``, the tiny process that forks what we measure."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-S", "-E", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,  # Ctrl-C reaches it through close(), not the tty
        )

    def run(
        self, argv: Sequence[str], work: Path, timeout: float, *, name: str = "launch"
    ) -> Launch:
        """Run one command to completion in its own process group.

        stdout/stderr go to ``work/<name>.stdout|stderr`` (files, not
        pipes: nothing may burn CPU draining them).  On timeout or Ctrl-C
        the whole group — the CLI and its pool workers — is killed, and
        the launcher reaps it.
        """
        request = {
            "argv": list(argv), "env": child_env(), "cwd": str(work),
            "stdout": str(work / f"{name}.stdout"),
            "stderr": str(work / f"{name}.stderr"),
        }
        self._process.stdin.write(json.dumps(request) + "\n")
        self._process.stdin.flush()
        group = json.loads(self._process.stdout.readline())["pid"]
        timed_out = threading.Event()

        def kill_group() -> None:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass

        def on_timeout() -> None:
            timed_out.set()
            kill_group()

        timer = threading.Timer(timeout, on_timeout)
        timer.start()
        try:
            line = self._process.stdout.readline()
        except BaseException:  # Ctrl-C: kill the group, let the launcher reap it
            kill_group()
            self._process.stdout.readline()
            raise
        finally:
            timer.cancel()
            kill_group()  # pool workers orphaned by a crashed parent, if any
        done = json.loads(line)
        code = os.waitstatus_to_exitcode(done["status"])
        return Launch(
            rc=None if timed_out.is_set() and code < 0 else code,
            wall_s=done["wall_s"],
            cpu_s=done["cpu_s"],
            peak_rss_mb=done["maxrss_kb"] / 1024.0,
            started_at=done["started_at"],
        )

    def close(self) -> None:
        self._process.stdin.close()
        self._process.wait()
        self._process.stdout.close()


def cli(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


# ---------------------------------------------------------------- helpers


class Helpers:
    """The calls that need :mod:`repro`: a process each, or (smoke) inline."""

    def __init__(self, in_process: bool) -> None:
        self.in_process = in_process
        if in_process:
            sys.path.insert(0, str(SRC))

    def _spawn(self, module: str, args: Sequence[str], request: dict, work: Path):
        request_path = work / f"{module}.request.json"
        request_path.write_text(json.dumps(request), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", f"e2e.{module}", *args, str(request_path)],
            env=child_env(), cwd=str(work), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=WARMUP_CAP_S,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"e2e.{module} {' '.join(args)} failed:\n"
                + done.stderr.decode("utf-8", "replace")[-2000:]
            )
        return json.loads(done.stdout.decode("utf-8").splitlines()[-1])

    def generate(self, workload: W.Workload, seed: int, sizes: W.Sizes, work: Path) -> dict:
        if self.in_process:
            from e2e import inproc

            return inproc.generate(workload.name, seed, sizes)
        request = {"workload": workload.name, "seed": seed, "sizes": asdict(sizes)}
        return self._spawn("inproc", ["generate"], request, work)

    def check(self, inputs: dict, results: Path, oracle_rows: int, work: Path) -> dict:
        if self.in_process:
            from e2e import inproc

            return inproc.check_campaign(inputs, str(results), oracle_rows)
        request = {"inputs": inputs, "results": str(results), "oracle_rows": oracle_rows}
        return self._spawn("inproc", ["check"], request, work)

    def trace(
        self, workload: W.Workload, inputs: dict, argv: Sequence[str],
        work: Path, traced: bool, keep: bool,
    ) -> dict:
        if self.in_process:
            from e2e import trace

            return trace.trace_workload(
                workload, inputs, argv, work, traced=traced, keep=keep
            )
        request = {
            "workload": workload.name, "inputs": inputs, "argv": list(argv),
            "work": str(work), "traced": traced, "keep": keep,
        }
        return self._spawn("trace", [], request, work)


# ---------------------------------------------------------------- context


@dataclass
class Context:
    seed: int
    sizes: W.Sizes
    helpers: Helpers
    launcher: Launcher
    keep: bool = False
    smoke: bool = False  # test sizes: no warm-up, no probe launches
    live: List[Path] = field(default_factory=list)  # directories not yet discarded

    def fresh_dir(self, label: str) -> Path:
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_ROOT))
        self.live.append(work)
        return work

    def discard(self, work: Path) -> None:
        if not self.keep:
            shutil.rmtree(work, ignore_errors=True)
            self.live.remove(work)

    def close(self) -> None:
        """Stop the launcher; remove what an interrupt left (or list what
        ``--keep`` kept)."""
        self.launcher.close()
        if self.keep:
            print("kept: " + " ".join(str(path) for path in self.live), file=sys.stderr)
            return
        for work in list(self.live):
            self.discard(work)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # absent, or another run's directories are in it


def set_up(
    ctx: Context, workload: W.Workload, inputs: dict, *, workers: Optional[int] = None
) -> Tuple[Path, List[str], float, List[str]]:
    """One launch's set-up: ``(fresh dir, cli args, seconds, failures)``.

    Writes the generated spec file; for ``campaign-resume`` also runs the
    interrupted first half (``--stop-after``, exit 3), which is why set-up
    time is a metric of its own.
    """
    started = time.perf_counter()
    failures: List[str] = []
    work = ctx.fresh_dir(workload.name)
    if inputs["spec"] is not None:
        (work / "spec.json").write_text(
            json.dumps(inputs["spec"], sort_keys=True), encoding="utf-8"
        )
    if workload.resume:
        half = int(inputs["items"]) // 2
        first = ctx.launcher.run(
            cli(W.interrupted_args(workload, ctx.seed, work, half)),
            work, WARMUP_CAP_S, name="setup",
        )
        if first.rc != W.EXIT_INTERRUPTED:
            failures.append(f"interrupted first half exited {first.rc}, expected 3")
    args = W.cli_args(workload, ctx.seed, ctx.sizes, work, workers=workers)
    return work, args, time.perf_counter() - started, failures


# ----------------------------------------------------- output inspection

_FUZZ_SUMMARY = re.compile(
    r"fuzzed (\d+) candidates \((\d+) executed, (\d+) duplicate\(s\), "
    r"(\d+) skipped\): (\d+) finding"
)
#: Host-time fields of the serve report, excluded from the output digest.
_SMR_VOLATILE = ("_wall_seconds", "throughput")


def read_smr_report(work: Path, name: str = "launch") -> Optional[dict]:
    try:
        return json.loads((work / f"{name}.stdout").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def inspect_output(
    workload: W.Workload, inputs: dict, work: Path
) -> Tuple[str, int, List[str], dict]:
    """``(sha256, items done, failures, facts)`` of one finished launch."""
    failures: List[str] = []
    facts: dict = {}
    done = 0
    if workload.kind == "campaign":
        path = work / "results.jsonl"
        data = path.read_bytes() if path.exists() else b""
        if not path.exists():
            failures.append("no finalized results file")
        if (work / "results.jsonl.partial").exists():
            failures.append("checkpoint left behind")
        done = data.count(b"\n")
    elif workload.kind == "fuzz":
        path = work / "findings.jsonl"
        data = path.read_bytes() if path.exists() else b"<missing>"
        stderr = (work / "launch.stderr").read_text(encoding="utf-8", errors="replace")
        if f"space {inputs['space'][:12]}" not in stderr:
            failures.append("fuzz run did not search the default space")
        summary = _FUZZ_SUMMARY.search(stderr)
        if summary is None:
            failures.append("no fuzz summary line")
        else:
            # Findings are not failures: a seed may surface one (seed 100
            # does), and the digest check still pins it across launches.
            _budget, executed, duplicates, _skipped, _findings = map(int, summary.groups())
            done = executed + duplicates
        if (work / "findings.jsonl.state").exists():
            failures.append("fuzz state sidecar left behind")
    else:
        report = read_smr_report(work)
        if report is None:
            return "", 0, ["serve report is not JSON"], facts
        facts = report
        done = int(report.get("committed_commands", 0))
        if not report.get("digests_agree"):
            failures.append("replica digests disagree")
        if report.get("stalled"):
            failures.append("service stalled")
        if report.get("offered") != done:
            failures.append(f"committed {done} of {report.get('offered')} offered")
        stable = {k: v for k, v in report.items() if k not in _SMR_VOLATILE}
        data = json.dumps(stable, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest(), done, failures, facts


# ------------------------------------------------------------- measuring


def spread(values: Sequence[float]) -> dict:
    return {
        "min": min(values), "median": statistics.median(values),
        "max": max(values), "k": len(values),
    }


def measure(
    ctx: Context, workload: W.Workload, *,
    repeats: Optional[int] = None, seconds: Optional[float] = None,
) -> dict:
    """Generate inputs, launch repeatedly, check outputs; one workload's set.

    Launches until ``seconds`` have passed (never fewer than the
    workload's ``min_repeats``) or exactly ``repeats`` times.  Timing
    metrics are the minimum over the launches — the simulator is
    deterministic, so everything above the minimum is host interference —
    set-up time and peak RSS are medians.
    """
    failures: List[str] = []
    scratch = ctx.fresh_dir("inputs")
    generation_times: List[float] = []
    inputs: dict = {}
    for _ in range(1 if ctx.smoke else GENERATIONS):
        started = time.perf_counter()
        inputs = ctx.helpers.generate(workload, ctx.seed, ctx.sizes, scratch)
        generation_times.append(time.perf_counter() - started)
    items = int(inputs["items"])

    timeout = WARMUP_CAP_S
    if not ctx.smoke:
        work, args, _seconds, problems = set_up(ctx, workload, inputs)
        warm = ctx.launcher.run(cli(args), work, WARMUP_CAP_S)
        failures.extend(f"warm-up: {problem}" for problem in problems)
        ctx.discard(work)
        timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * warm.wall_s)

    launches: List[Launch] = []
    setup_times: List[float] = []
    digests: List[str] = []
    facts: dict = {}
    failed_items = 0
    verified: Optional[Tuple[Path, str]] = None  # first good launch, kept for verify()
    loop_started = time.perf_counter()
    while True:
        count = len(launches)
        if repeats is not None:
            if count >= repeats:
                break
        elif count >= workload.min_repeats and (
            time.perf_counter() - loop_started >= (seconds or 0.0)
        ):
            break
        work, args, setup_seconds, problems = set_up(ctx, workload, inputs)
        done = ctx.launcher.run(cli(args), work, timeout)
        digest, items_done, output_problems = "", 0, []
        if done.rc == 0:
            digest, items_done, output_problems, facts = inspect_output(workload, inputs, work)
        else:
            problems.append(
                "killed after exceeding 10x its warm-up time" if done.rc is None
                else f"exit code {done.rc}"
            )
        problems.extend(output_problems)
        failed_items += items if done.rc != 0 else max(0, items - items_done)
        failures.extend(f"launch {count + 1}: {problem}" for problem in problems)
        launches.append(done)
        setup_times.append(setup_seconds)
        digests.append(digest)
        if verified is None and done.rc == 0:
            verified = (work, digest)
        else:
            ctx.discard(work)

    if len(set(digests)) != 1:
        failures.append(f"output differs between launches: {sorted(set(digests))}")
    if verified is not None:
        extra_failed, problems = verify(ctx, workload, inputs, *verified, facts)
        failed_items += extra_failed
        failures.extend(problems)
        ctx.discard(verified[0])
    ctx.discard(scratch)

    attempted = items * len(launches)
    walls = [done.wall_s for done in launches]
    detail = {
        "wall_s": spread(walls),
        "cpu_s": spread([done.cpu_s for done in launches]),
        "peak_rss_mb": spread([done.peak_rss_mb for done in launches]),
        "setup_launch_s": spread(setup_times),
        "setup_generate_s": spread(generation_times),
    }
    end_to_end = {
        "wall_s": detail["wall_s"]["min"],
        "items_per_s": items / detail["wall_s"]["min"],
        "cpu_s": detail["cpu_s"]["min"],
        "peak_rss_mb": detail["peak_rss_mb"]["median"],
        "setup_s": detail["setup_generate_s"]["median"] + detail["setup_launch_s"]["median"],
        "failed_share": failed_items / attempted,
        "smr_latency_p50": facts.get("latency_p50"),
        "smr_latency_p99": facts.get("latency_p99"),
    }
    return {
        "inputs": inputs,
        "items": items,
        "attempted": attempted,
        "failed": failed_items,
        "correct": not failures and failed_items == 0,
        "failures": failures[:20],
        "sha256": verified[1] if verified else None,
        "end_to_end": end_to_end,
        "detail": detail,
    }


def verify(
    ctx: Context, workload: W.Workload, inputs: dict,
    work: Path, digest: str, facts: dict,
) -> Tuple[int, List[str]]:
    """The once-per-set checks; returns ``(failed items, failures)``."""
    failures: List[str] = []
    failed = 0
    if workload.kind == "campaign":
        checked = ctx.helpers.check(
            inputs, work / "results.jsonl", ctx.sizes.oracle_rows, work
        )
        failed += (
            checked["error_rows"] + checked["missing"] + checked["oracle_mismatches"]
        )
        failures.extend(checked["failures"])
    if workload.resume:
        # The resumed file must be the file campaign-replicate's single
        # uninterrupted run writes.
        reference = ctx.fresh_dir("reference")
        shutil.copy(work / "spec.json", reference / "spec.json")
        args = W.cli_args(
            W.BY_NAME["campaign-replicate"], ctx.seed, ctx.sizes, reference, workers=1
        )
        single = ctx.launcher.run(cli(args), reference, WARMUP_CAP_S)
        if single.rc != 0 or inspect_output(workload, inputs, reference)[0] != digest:
            failures.append("resumed output differs from a single-shot run")
            failed += int(inputs["items"])
        ctx.discard(reference)
    if workload.kind == "smr":
        if facts.get("offered") != inputs["items"]:
            failures.append(
                f"{facts.get('offered')} requests offered, {inputs['items']} generated"
            )
        # Any (batch, depth) must commit the slot-at-a-time sequence.
        digests = []
        for pipeline in (W.SMR_PIPELINE, W.SMR_SLOT_AT_A_TIME):
            pair_dir = ctx.fresh_dir("companion")
            done = ctx.launcher.run(
                cli(W.smr_args(ctx.seed, W.SMR_RATE, ctx.sizes.companion_duration, pipeline)),
                pair_dir, WARMUP_CAP_S,
            )
            report = read_smr_report(pair_dir) or {}
            if done.rc != 0 or not report.get("digests_agree"):
                failures.append(f"companion {pipeline} failed (exit {done.rc})")
            digests.append((report.get("log_digest"), report.get("digest")))
            ctx.discard(pair_dir)
        if digests[0] != digests[1]:
            failures.append("pipelined and slot-at-a-time digests differ")
    return failed, failures


# --------------------------------------------------------------- tracing


def probe_min(ctx: Context, argv: Sequence[str], work: Path, name: str) -> Optional[float]:
    walls = []
    for _ in range(PROBE_REPEATS):
        done = ctx.launcher.run(argv, work, WARMUP_CAP_S, name=name)
        if done.rc != 0:
            return None
        walls.append(done.wall_s)
    return min(walls)


def import_probe(ctx: Context, kind: str, work: Path) -> Dict[str, Optional[float]]:
    """Bare interpreter start, and what importing the command's layers adds."""
    modules = sorted({"repro.cli"} | {target[1] for target in targets_for(kind)})
    script = (
        "import importlib\n"
        f"for name in {modules!r}:\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except ImportError:\n"
        "        pass\n"
    )
    start = probe_min(ctx, [sys.executable, "-c", "pass"], work, "start")
    loaded = probe_min(ctx, [sys.executable, "-c", script], work, "import")
    return {
        "cli.start_s": start,
        "cli.import_s": None if start is None or loaded is None else loaded - start,
    }


def events_probe(
    ctx: Context, workload: W.Workload, inputs: dict
) -> Dict[str, Optional[float]]:
    """One extra launch with the public ``--events`` sidecar: pool figures."""
    work, args, _seconds, _problems = set_up(ctx, workload, inputs)
    events_path = work / "events.jsonl"
    done = ctx.launcher.run(cli([*args, "--events", str(events_path)]), work, WARMUP_CAP_S)
    result = pool_figures(events_path, done, workload.workers) if done.rc == 0 else {}
    ctx.discard(work)
    return result


def pool_figures(events_path: Path, done: Launch, workers: int) -> Dict[str, Optional[float]]:
    first_row = None
    busy_ms = 0.0
    with open(events_path, "r", encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("kind") != "row_completed":
                continue
            if first_row is None:
                first_row = event["ts"] - done.started_at
            busy_ms += event.get("duration_ms") or 0.0
    return {
        "campaigns.runner.first_row_s": first_row,
        "campaigns.runner.worker_busy_share": busy_ms / 1000.0 / (workers * done.wall_s),
    }


def rate_ok(report: dict, duration: float) -> bool:
    """Does a ladder rung meet the p99 limit with no backlog at the end?"""
    return (
        not report.get("stalled")
        and report.get("committed_commands") == report.get("offered")
        and report.get("latency_p99") is not None
        and report["latency_p99"] <= W.SMR_P99_LIMIT
        and report.get("simulated_duration", 0.0) - duration <= W.SMR_P99_LIMIT
    )


def max_rate_ok(ctx: Context) -> float:
    """Highest ladder rate that passes :func:`rate_ok` (0 when none does)."""
    best = 0.0
    for rate in W.SMR_LADDER:
        duration = ctx.sizes.ladder_requests / rate
        work = ctx.fresh_dir("ladder")
        done = ctx.launcher.run(
            cli(W.smr_args(ctx.seed, rate, duration, W.SMR_PIPELINE)), work, WARMUP_CAP_S
        )
        report = read_smr_report(work) or {}
        if done.rc == 0 and rate_ok(report, duration):
            best = max(best, rate)
        ctx.discard(work)
    return best


def trace_step(ctx: Context, workload: W.Workload, inputs: dict) -> dict:
    """The separate traced run (in-process, ``--workers 1``) plus probes."""
    walls = {}
    result: dict = {}
    for traced in (True, False):
        work, args, _seconds, _problems = set_up(ctx, workload, inputs, workers=1)
        outcome = ctx.helpers.trace(workload, inputs, args, work, traced, ctx.keep)
        walls[traced] = outcome["wall_s"]
        if traced:
            result = outcome
        ctx.discard(work)
    metrics: Dict[str, Optional[float]] = dict(result.get("metrics", {}))
    metrics["trace.overhead_share"] = walls[True] / walls[False] - 1.0
    if not ctx.smoke:
        scratch = ctx.fresh_dir("probe")
        metrics.update(import_probe(ctx, workload.kind, scratch))
        ctx.discard(scratch)
        if workload.kind == "campaign":
            metrics.update(events_probe(ctx, workload, inputs))
        if workload.kind == "smr":
            metrics["smr.max_rate_ok"] = max_rate_ok(ctx)
    return {
        "rc": result.get("rc"),
        "missing_targets": result.get("missing", []),
        "traced_wall_s": walls[True],
        "untraced_wall_s": walls[False],
        "per_layer": {metric.name: metrics.get(metric.name) for metric in W.PER_LAYER},
    }


# ------------------------------------------------------------- reporting


def environment(seed: int) -> dict:
    from importlib import metadata

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    commit = "unknown"
    if (REPO / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        if found.returncode == 0:
            commit = found.stdout.decode().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg_start": loadavg(),
        "commit": commit,
        "seed": seed,
    }


def loadavg() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").strip()
    except OSError:
        return None


def run_set(ctx: Context, names: Sequence[str], repeats: Optional[int]) -> dict:
    """Every selected workload once: measured launches, then its trace."""
    report = {"schema": REPORT_SCHEMA, "environment": environment(ctx.seed), "workloads": {}}
    for name in names:
        workload = W.BY_NAME[name]
        measured = measure(
            ctx, workload,
            repeats=repeats if repeats is not None else workload.repeats,
        )
        inputs = measured.pop("inputs")
        entry = {
            "why": workload.why,
            "item_unit": workload.item_unit,
            "argv": W.cli_args(workload, ctx.seed, ctx.sizes, Path("<dir>")),
            **measured,
        }
        traced = trace_step(ctx, workload, inputs)
        entry["trace"] = {k: v for k, v in traced.items() if k != "per_layer"}
        entry["per_layer"] = traced["per_layer"]
        entry["end_to_end"]["smr_max_rate_ok"] = traced["per_layer"].get("smr.max_rate_ok")
        if traced["rc"] != 0:
            entry["correct"] = False
            entry["failures"].append(f"traced run exited {traced['rc']}")
        report["workloads"][name] = entry
        print_workload(name, entry)
    report["environment"]["loadavg_end"] = loadavg()
    return report


def print_workload(name: str, entry: dict) -> None:
    units = {metric.name: metric.unit for metric in W.END_TO_END + W.REPORT_ONLY + W.PER_LAYER}
    host_time = {metric.name for metric in W.END_TO_END}
    print(f"\n== {name}: {entry['items']} {entry['item_unit']} x "
          f"{entry['detail']['wall_s']['k']} launches, "
          f"{'correct' if entry['correct'] else 'INCORRECT'}")
    for failure in entry["failures"]:
        print(f"   ! {failure}")
    for metric, value in entry["end_to_end"].items():
        base = "host" if metric in host_time else "simulated" if metric.startswith("smr") else ""
        print(f"   {metric:<40} {format_value(value):>14} {units[metric]:<10} {base}")
    layers = entry["per_layer"]
    for metric, value in layers.items():
        if value is not None:
            print(f"   {metric:<40} {format_value(value):>14} {units[metric]}")
    absent = [metric for metric, value in layers.items() if value is None]
    if absent:
        print(f"   null (layer not on this workload's path): {' '.join(absent)}")


def format_value(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 10:
        return f"{int(value)}"
    return f"{value:.4f}"


def write_report(path: Path, report: dict) -> None:
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(scratch, path)


def bounds() -> Dict[str, float]:
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}


#: Below this many seconds a set-up difference is noise, whatever its ratio.
SETUP_ABSOLUTE_S = 0.05


def compare_sets(first: dict, second: dict, limits: Dict[str, float]) -> dict:
    """Is every metric of ``second`` within its bound of ``first``?

    Host-time metrics may differ by their BENCHMARK.json bound (either
    way); everything else — simulated latencies, failed share, output
    digests and every exact per-layer count — must be equal.
    """
    rows = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric, x in a["end_to_end"].items():
            y = b["end_to_end"][metric]
            if metric in limits and x and y is not None:
                delta = abs(y - x) / x
                ok = delta <= limits[metric] or (
                    metric == "setup_s" and abs(y - x) <= SETUP_ABSOLUTE_S
                )
                rows.append({"workload": name, "metric": metric, "a": x, "b": y,
                             "delta": delta, "bound": limits[metric], "ok": ok})
            else:
                rows.append({"workload": name, "metric": metric, "a": x, "b": y,
                             "exact": True, "ok": x == y})
        rows.append({"workload": name, "metric": "sha256", "a": a["sha256"],
                     "b": b["sha256"], "exact": True, "ok": a["sha256"] == b["sha256"]})
        for metric in W.EXACT_LAYER_METRICS:
            x, y = a["per_layer"].get(metric), b["per_layer"].get(metric)
            rows.append({"workload": name, "metric": metric, "a": x, "b": y,
                         "exact": True, "ok": x == y})
    return {"ok": all(row["ok"] for row in rows), "comparisons": rows}


# ------------------------------------------------------------------ main


def contract_run(ctx: Context, workload: W.Workload, seconds: float, trace: bool) -> int:
    """One run of the BENCHMARK.json contract: a single JSON line, last."""
    if trace:
        scratch = ctx.fresh_dir("inputs")
        inputs = ctx.helpers.generate(workload, ctx.seed, ctx.sizes, scratch)
        ctx.discard(scratch)
        traced = trace_step(ctx, workload, inputs)
        correct = traced["rc"] == 0
        units = {metric.name: metric.unit for metric in W.PER_LAYER}
        # The contract wants a number for every metric on every workload:
        # a layer this workload never enters reads 0 here, null in reports.
        metrics = {
            name: {"value": 0 if value is None else value, "unit": units[name]}
            for name, value in traced["per_layer"].items()
        }
        attempted, failed = int(inputs["items"]), 0 if correct else int(inputs["items"])
    else:
        measured = measure(ctx, workload, seconds=seconds)
        for failure in measured["failures"]:
            print(f"! {failure}", file=sys.stderr)
        correct = measured["correct"]
        metrics = {
            metric.name: {"value": measured["end_to_end"][metric.name], "unit": metric.unit}
            for metric in W.END_TO_END
        }
        attempted, failed = measured["attempted"], measured["failed"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", choices=sorted(W.BY_NAME),
                        help="contract mode: measure this one workload")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="contract mode: how long to keep launching")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 makes the traced run instead")
    parser.add_argument("--repeats", type=int, default=None,
                        help="launches per workload (default 5; 15 for small-cold)")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--verify-repeat", action="store_true",
                        help="run two sets and fail unless they agree within bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the test suite; not a measurement")
    parser.add_argument("--keep", action="store_true", help="keep every launch directory")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "cli.py").exists():
        print(f"nothing to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    ctx = Context(
        seed=args.seed,
        sizes=W.SMOKE if args.smoke else W.FULL,
        helpers=Helpers(in_process=args.smoke),
        launcher=Launcher(),
        keep=args.keep,
        smoke=args.smoke,
    )
    try:
        if args.workload:
            return contract_run(ctx, W.BY_NAME[args.workload], args.seconds, bool(args.trace))
        names = args.workloads.split(",") if args.workloads else [w.name for w in W.WORKLOADS]
        unknown = [name for name in names if name not in W.BY_NAME]
        if unknown:
            print(f"unknown workload(s): {unknown}", file=sys.stderr)
            return 2
        repeats = 1 if args.smoke and args.repeats is None else args.repeats
        report = run_set(ctx, names, repeats)
        if report["environment"]["numpy"] == "absent":
            print("warning: numpy absent — the columnar-state tier demotes, figures "
                  "are not comparable with a numpy host", file=sys.stderr)
        ok = all(entry["correct"] for entry in report["workloads"].values())
        if args.verify_repeat:
            print("\n== second set (same code, same seed)")
            second = run_set(ctx, names, repeats)
            ok = ok and all(entry["correct"] for entry in second["workloads"].values())
            verdict = compare_sets(report, second, bounds())
            report["repeatability"] = {"second_set": second["workloads"], **verdict}
            for row in verdict["comparisons"]:
                if not row["ok"]:
                    print(f"   ! {row['workload']} {row['metric']}: {row['a']} vs {row['b']}")
            print(f"\nrepeatability: {'within bounds' if verdict['ok'] else 'OUT OF BOUNDS'}")
            ok = ok and verdict["ok"]
        if args.out:
            write_report(Path(args.out), report)
        return 0 if ok else 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        ctx.close()


if __name__ == "__main__":
    raise SystemExit(main())
