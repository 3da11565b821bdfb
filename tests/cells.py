"""The CI cells: contracts checked by driving the CLI as a user does, one
function and one ``ci.yml`` step each.  ``python tests/cells.py [NAME ...]``
runs the named ``CELLS`` (no name: all) and exits 1 on the first failed
assertion.  Files go to ``/tmp``, where CI uploads events and corpora."""

import contextlib
import filecmp
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from repro.campaigns import load_spec  # noqa: E402
from repro.observability import read_events  # noqa: E402
from repro.utils.jsonl import checkpoint_path as partial  # noqa: E402

TMP = Path("/tmp")
DEADLINE = 600  # seconds one CLI may run; the slowest takes 5 s on a 2-core host
#: Runs ``argv[1:]``, then writes its ``os.wait4`` peak RSS (KiB), which
#: covers the pool workers it reaped, to stderr.  Linux starts a child's peak
#: at its forker's RSS, so this fresh interpreter forks the CLI, not the cells.
PEAK = """import os, subprocess, sys
_, status, usage = os.wait4(subprocess.Popen(sys.argv[1:]).pid, 0)
print("peak", usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))"""
Finished = namedtuple("Finished", "out err peak imports")  # peak in MB, if measured


def cli(command, expect=0, env=None, measure=False, stop=None):
    """Run ``python -m repro.cli COMMAND`` and assert its exit status (a
    signal's is negative); ``measure`` adds ``PEAK`` and ``-X importtime``.
    ``stop=(path, lines, signal)`` signals it once ``path`` has more lines
    than ``lines``, failing if it ends first or ``DEADLINE`` passes."""
    argv = [sys.executable, "-m", "repro.cli", *command.split()]
    if measure:
        argv[1:1] = ["-c", PEAK, sys.executable, "-X", "importtime"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **(env or {})}
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, start_new_session=True)
        try:
            if stop:
                path, lines, sig = stop
                until = time.monotonic() + DEADLINE
                while not path.exists() or path.read_bytes().count(b"\n") <= lines:
                    assert proc.poll() is None, f"exited {proc.returncode}, {path} short of {lines}"
                    assert time.monotonic() < until, f"{path} short of {lines} after {DEADLINE} s"
                    time.sleep(0.01)
                proc.send_signal(sig)
            proc.wait(DEADLINE)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # the CLI and whatever it forked
            proc.wait()
            raise
        stdout.seek(0)
        stderr.seek(0)
        out, err = stdout.read().decode(), stderr.read().decode()
    assert proc.returncode == expect, f"{command} exited {proc.returncode}, not {expect}:\n{err}"
    if not measure:
        return Finished(out, err, None, None)
    err, peak = err.rsplit("peak ", 1)
    imports = {line.split("|")[-1].strip() for line in err.splitlines()}
    return Finished(out, err, int(peak) / 1024, imports)


def same(a, b):
    assert filecmp.cmp(a, b, shallow=False), f"{a} and {b} differ"


def absent(*paths):
    assert not [path for path in paths if path.exists()], paths


def fresh(*names):
    """``TMP / name`` for each name, rid of an earlier run's file and checkpoint."""
    for name in names:
        (TMP / name).unlink(missing_ok=True)
        partial(TMP / name).unlink(missing_ok=True)
    return [TMP / name for name in names] if len(names) > 1 else TMP / names[0]


def write_json(name, mapping):
    (TMP / name).write_text(json.dumps(mapping))
    return TMP / name


def front_door():
    """A misspelt ``smr sweep`` name used to print inapplicable cells, and a
    repeated entry to run a cell twice or double a fuzz draw weight; argparse
    refuses a retired knob before anything is read or written.  A scenario
    that needs 18 phases runs 18 at any shorter ``--max-phases``.  The
    implemented-``Pcons`` engines run, refuse crash faults and plan scalar."""
    for command in ("run", "sweep", "ben-or", "smr sweep --scenarios nope",
                    "smr sweep --algorithm nope", "smr sweep --rates 8,8"):
        cli(command, expect=2)
    repeats = write_json("repeats.json", {
        "name": "repeats", "algorithms": ["class-2", "class-2"], "models": [[9, 1, 1]]})
    cli(f"campaign run {repeats} --out {fresh('repeats.jsonl')}", expect=2)
    absent(TMP / "repeats.jsonl")
    corpus = fresh("fuzz-repeats.jsonl")
    for axis in ("--algorithms pbft pbft", "--models 4,1,0 4,1,0"):
        cli(f"fuzz run --budget 1 {axis} --out {corpus}", expect=2)
    absent(corpus, partial(corpus))
    knob, sweep = fresh("knob.jsonl", "knob.sweep.jsonl")
    for command in (
        *(f"fuzz run --budget 1 {flag} --out {knob}" for flag in (
            "--no-shrink", "--mutate-prob 0.3", "--n-min 3", "--shrink-attempts 5")),
        f"fuzz shrink {knob} --shrink-attempts 5", "smr serve --batch-bytes 64 --json",
        f"smr sweep --batch-bytes 64 --out {sweep}",
    ):
        run = cli(command, expect=2)
        assert "unrecognized arguments" in run.err and not run.out, (command, run)
    absent(knob, partial(knob), sweep)
    scenario = "scenario run async_then_sync --algorithm pbft --n 4 --b 1 --max-phases"
    assert cli(f"{scenario} 2").out == cli(f"{scenario} 18").out
    serve = "smr serve --scenario lossy_channel --seed 5 --json --max-phases"
    rows = [json.loads(cli(f"{serve} {phases}").out) for phases in (1, 18)]
    for row in rows:
        del row["_wall_seconds"], row["throughput"]  # wall-clock readings
    assert json.dumps(rows[0], sort_keys=True) == json.dumps(rows[1], sort_keys=True), rows
    pcons = "scenario run worst_case --algorithm pbft --n 4 --b 1 --engine pcons-sigfree"
    assert "  lemmas      : ok" in cli(pcons).out
    crash = "scenario run fault-free --algorithm class-3 --n 7 --b 1 --f 1 --engine pcons-auth"
    assert "scenario inapplicable" in cli(crash, expect=2).err
    plan = write_json("pcons-plan.json", {
        "name": "pcons-plan", "algorithms": ["pbft"], "models": [[4, 1, 0]],
        "engines": ["pcons-auth"], "scenarios": ["worst_case"]})
    assert "scalar          implemented Pcons runs its micro-rounds per run" in cli(
        f"campaign plan {plan}").out


def campaign_kill():
    """A resume under an edited ``max_phases``, or of a line respelled in
    ``json.dumps``' spacing, is refused before anything runs; a good one cuts
    the torn sidecar to whole lines and counts only its own rows.  SIGTERM is
    Ctrl-C: exit 130, the pool gone 5 s later, the checkpoint kept."""
    from equivalences import GRIDS

    mapping = GRIDS["kill-cmp"].spec
    spec = write_json("kill.spec.json", mapping)
    edited = write_json("kill.edited.json", dict(mapping, max_phases=mapping["max_phases"] + 1))
    single, killed, events, respelled, term = fresh(*(f"{name}.jsonl" for name in (
        "kill.single", "kill.killed", "kill.events", "kill.respelled", "term")))
    flags = "--workers 1 --quiet --no-report"
    run = f"campaign run {spec} {flags}"
    cli(f"{run} --out {single}")
    cli(f"{run} --out {killed} --events {events}", -signal.SIGKILL,
        stop=(partial(killed), 1000, signal.SIGKILL))
    assert partial(killed).is_file()
    (TMP / "kill.copy").write_bytes(partial(killed).read_bytes())
    err = cli(f"campaign run {edited} {flags} --out {killed} --resume", expect=2).err
    same(TMP / "kill.copy", partial(killed))
    assert re.search(r"^cannot resume: .*\(max_phases: checkpoint has ", err, re.M), err
    lines = partial(killed).read_bytes().splitlines(keepends=True)
    lines[500] = json.dumps(json.loads(lines[500])).encode() + b"\n"
    (TMP / "kill.copy").write_bytes(b"".join(lines))
    partial(respelled).write_bytes(b"".join(lines))
    cli(f"{run} --out {respelled} --resume", expect=2)
    same(TMP / "kill.copy", partial(respelled))
    absent(respelled)
    cli(f"{run} --out {killed} --events {events} --resume")
    same(single, killed)
    absent(partial(killed))
    every = read_events(events)
    starts = [e["resume"] for e in every if e["kind"] == "campaign_started"]
    assert starts == [False, True], starts
    resumed = every[[e["kind"] for e in every].index("resume_skipped"):]
    finished = [e for e in resumed if e["kind"] == "campaign_finished"]
    total = load_spec(spec).total_runs
    assert resumed[0]["rows"] + finished[0]["rows"] == total, (resumed[0], finished)
    assert finished[0]["errors"] == 0, finished
    cli(f"campaign report {killed} --events {events}")
    pool = f"campaign run {spec} --workers 2 --quiet --no-report --out {term}"
    err = cli(f"{pool} --backend scalar", 130, stop=(partial(term), 1000, signal.SIGTERM)).err
    assert re.search("^interrupted after", err, re.M), err
    time.sleep(5)
    left = subprocess.run(["pgrep", "-f", str(term)], capture_output=True, text=True).stdout
    assert not left, f"processes naming {term} are left: {left}"
    cli(f"{pool} --resume")
    same(single, term)


def pooled(name, spec, env=None):
    """``spec`` at ``--workers 2``, measured, with ``--events``; then at
    ``--workers 1`` and, under ``env``, at 2 again, each ``cmp``-equal to it."""
    grid = f"campaign run {spec} --quiet --no-report --workers"
    two, one, under, events = fresh(*(f"{name}.{arm}.jsonl" for arm in ("2", "1", "env", "events")))
    run = cli(f"{grid} 2 --out {two} --events {events}", measure=True)
    print(f"peak RSS {run.peak:.1f} MB at --workers 2")
    cli(f"{grid} 1 --out {one}")
    same(one, two)
    if env:
        cli(f"{grid} 2 --out {under}", env=env)
        same(under, two)
    return run, two, events


def campaign_memory():
    """The line index is 16 bytes a run and finalize reads in bounded windows:
    120,000 replicate-tier rows (a 57 MB file) peak near 21 MB, where a dict
    index and a whole-file finalize peaked at 110 MB.  Every cell replicates
    or is rejected, so nothing forks; CPython's builtins digest, not OpenSSL."""
    run, out, events = pooled("scale", write_json("scale.json", {
        "name": "scale", "algorithms": ["class-1", "class-2", "class-3"],
        "models": [[7, 1, 1], [9, 1, 1]], "engines": ["lockstep", "timed"],
        "scenarios": ["crash_storm", "fault-free", "partition_heal",
                      "silent_minority", "worst_case"],
        "repetitions": 2000, "max_phases": 18, "seed": 7}))
    assert run.peak <= 64, f"peak RSS {run.peak:.1f} MB > 64 MB"
    assert "_hashlib" not in run.imports, "OpenSSL loaded"
    chunks = read_events(events, "chunk_dispatched")
    assert chunks and all(e["where"] == "parent" for e in chunks), chunks
    assert out.read_bytes().count(b"\n") == 120000


def pooled_scalar():
    """A single-repetition grid cannot batch: its pool workers load neither
    numpy nor the batch kernel, so no process of the campaign maps OpenSSL."""
    run, _out, events = pooled("gauntlet", "gauntlet")
    assert any(e["where"] == "pool" for e in read_events(events, "chunk_dispatched")), events
    assert "_hashlib" not in run.imports, "OpenSSL loaded"
    assert "repro.engine.batch" not in run.imports, "batch kernel loaded"


def pooled_batch():
    """Needs numpy: the parent loads it before the fork, and the workers draw
    their runs' streams from a vectorized MT19937, not ``numpy.random``."""
    run, _out, events = pooled("batch", write_json("batch.json", {
        "name": "batch-grid", "algorithms": ["class-1", "class-2", "class-3"],
        "models": [[9, 1, 1], [21, 2, 2]], "engines": ["lockstep", "timed"],
        "scenarios": ["lossy_channel", "flaky_gst"], "repetitions": 8, "seed": 7}),
        env={"REPRO_NO_NUMPY": "1"})
    rows = read_events(events, "row_completed")
    assert any(e["backend"] == "columnar-state" for e in rows), "no columnar-state row"
    assert "_hashlib" not in run.imports, "OpenSSL loaded"
    assert "numpy.random" not in run.imports, "numpy.random loaded"


def serve_memory():
    """A serve keeps four float64 samples a request and 16 bytes a slot, near
    30 MB; boxed samples and an entry list kept per replica peaked at 69 MB."""
    run = cli("smr serve --algorithm pbft --n 4 --b 1 --scenario worst_case --engine lockstep "
              "--clients 4 --arrival poisson --batch 8 --depth 4 --rate 8 --duration 20000 "
              "--seed 7 --json", measure=True)
    row = json.loads(run.out)
    print(f"peak RSS {run.peak:.1f} MB for {row['offered']} requests")
    assert row["digests_agree"] is True, row
    assert run.peak <= 48, f"peak RSS {run.peak:.1f} MB > 48 MB"
    assert "_hashlib" not in run.imports, "OpenSSL loaded"


def fuzz_inbounds():
    """Theorem 1 holds inside Table 1's bounds, so any finding fails.  (The
    equivalence table checks rerun and resume.)"""
    out = fresh("fuzz.inbounds.jsonl")
    cli(f"fuzz run --seed 7 --budget 600 --quiet --out {out} --fail-on-finding")


OVER_BOUND = ("fuzz run --seed 7 --quiet --models 4,2,0 --algorithms one-third-rule "
              "--engines lockstep --over-bound allow")


def fuzz_kill():
    """The over-bound cell finds on both sides of the kill, so the resume has
    records to keep and more to find; another seed is refused, printing nothing."""
    single, killed = fresh("fuzz.single.jsonl", "fuzz.killed.jsonl")
    search = f"{OVER_BOUND} --budget 400"
    cli(f"{search} --out {single}")
    cli(f"{search} --out {killed}", -signal.SIGKILL, stop=(partial(killed), 100, signal.SIGKILL))
    assert partial(killed).is_file()
    (TMP / "fuzz.copy").write_bytes(partial(killed).read_bytes())
    assert not cli(f"{search} --seed 8 --out {killed} --resume", expect=2).out
    same(TMP / "fuzz.copy", partial(killed))
    cli(f"{search} --out {killed} --resume")
    same(single, killed)
    absent(partial(killed))


def fuzz_overbound():
    """The positive control finds, replays and shrinks: the bounds are tight."""
    out = fresh("fuzz.overbound.jsonl")
    cli(f"{OVER_BOUND} --budget 25 --out {out}")
    assert out.exists() and out.stat().st_size > 0, f"{out} is empty"
    for command in ("replay", "replay --shrunk", "shrink"):
        cli(f"fuzz {command} {out}")


CELLS = {cell.__name__.replace("_", "-"): cell for cell in (
    front_door, campaign_kill, campaign_memory, pooled_scalar, pooled_batch, serve_memory,
    fuzz_inbounds, fuzz_kill, fuzz_overbound)}


def main(names):
    for name in names or CELLS:
        print(f"== {name}", flush=True)
        CELLS[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
