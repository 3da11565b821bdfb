"""CLI commands that do not fork load no OpenSSL.

The simulator hashes for fingerprints only, through
:mod:`repro.utils.digests` (CPython's builtin SHA-256 and BLAKE2b), so
``_hashlib`` and its ``libcrypto`` stay out of every process that does not
start a pool.  A pooled campaign whose grid can batch imports :mod:`hashlib`
in the parent before its first fork: a numpy worker maps OpenSSL anyway,
through ``numpy.random`` → ``secrets`` → ``hmac``, and inherited pages cost a
worker less resident memory than its own.  A pooled grid that cannot batch
(fewer repetitions than ``BATCH_FLOOR``, a ``--chunk`` below it, or
``--backend scalar``) has no numpy worker, so it maps OpenSSL nowhere.  Each
command runs in a fresh interpreter, which reports at exit whether
``_hashlib`` was loaded and what it saw at each fork.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Runs ``repro.cli`` with the given argv; at exit prints one JSON line to
#: stderr: ``_hashlib`` loaded, and whether it was loaded at each fork.
WRAPPER = """
import atexit, json, os, runpy, sys
forks = []
os.register_at_fork(before=lambda: forks.append("_hashlib" in sys.modules))
atexit.register(lambda: sys.stderr.write("\\nOPENSSL " + json.dumps(
    {"loaded": "_hashlib" in sys.modules, "forks": forks}) + "\\n"))
sys.argv = ["repro"] + sys.argv[1:]
runpy.run_module("repro.cli", run_name="__main__")
"""

REPLICATE_GRID = {
    "name": "replicate-only", "algorithms": ["class-2", "class-3"],
    "models": [[7, 1, 1]], "engines": ["lockstep"],
    "scenarios": ["fault-free", "worst_case"], "repetitions": 8, "seed": 3,
}
#: The replicate grid plus seed-dependent cells, which need the pool.
MIXED_GRID = dict(
    REPLICATE_GRID, name="mixed", engines=["lockstep", "timed"],
    scenarios=["fault-free", "lossy_channel"],
)


def run_cli(*argv: str, cwd: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", WRAPPER, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = done.stderr.rsplit("OPENSSL ", 1)[1]
    return json.loads(report)


def write_grid(tmp_path: Path, grid: dict) -> str:
    path = tmp_path / f"{grid['name']}.json"
    path.write_text(json.dumps(grid))
    return str(path)


@pytest.fixture(scope="module")
def replicate_results(tmp_path_factory):
    """A replicate-only grid at --workers 2, which runs wholly in the parent."""
    tmp = tmp_path_factory.mktemp("replicate")
    out = tmp / "results.jsonl"
    report = run_cli(
        "campaign", "run", write_grid(tmp, REPLICATE_GRID), "--workers", "2",
        "--events", str(tmp / "events.jsonl"), "--progress", "--quiet",
        "--out", str(out), cwd=tmp,
    )
    return out, report


def test_replicate_campaign_loads_no_openssl(replicate_results):
    out, report = replicate_results
    assert report == {"loaded": False, "forks": []}
    assert len(out.read_text().splitlines()) == 32


def test_campaign_report_loads_no_openssl(replicate_results, tmp_path):
    out, _ = replicate_results
    report = run_cli("campaign", "report", str(out), cwd=tmp_path)
    assert report == {"loaded": False, "forks": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "run", "--budget", "20", "--quiet", "--out", "findings.jsonl"],
        ["smr", "serve", "--duration", "50"],
        ["scenario", "run", "fault-free", "--algorithm", "pbft", "--n", "4",
         "--b", "1"],
    ],
    ids=["fuzz-run", "smr-serve", "scenario-run"],
)
def test_command_loads_no_openssl(argv, tmp_path):
    assert run_cli(*argv, cwd=tmp_path) == {"loaded": False, "forks": []}


@pytest.mark.parametrize(
    "grid, argv, loaded",
    [
        (MIXED_GRID, [], True),
        (dict(MIXED_GRID, repetitions=2), [], False),
        (MIXED_GRID, ["--backend", "scalar"], False),
        (MIXED_GRID, ["--chunk", "2"], False),
    ],
    ids=["batchable", "two-reps", "scalar-backend", "chunk-below-floor"],
)
def test_pooled_campaign_loads_openssl_before_forking(
    grid, argv, loaded, tmp_path
):
    """Only a grid that can batch has numpy workers, so only its parent
    loads OpenSSL, and then before every fork."""
    report = run_cli(
        "campaign", "run", write_grid(tmp_path, grid), "--workers", "2",
        *argv, "--quiet", "--out", str(tmp_path / "results.jsonl"), cwd=tmp_path,
    )
    assert report["loaded"] is loaded, report
    # A non-empty list: the campaign did pool.
    assert report["forks"], report
    assert all(fork is loaded for fork in report["forks"]), report
