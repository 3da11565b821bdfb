"""No CLI command loads OpenSSL, and no campaign process imports ``numpy.random``.

The simulator hashes for fingerprints only, through
:mod:`repro.utils.digests` (CPython's builtin SHA-256 and BLAKE2b), so
``_hashlib`` and its ``libcrypto`` stay out of every process.  The array
tier draws its runs' streams from :class:`repro.utils.accel.StreamSet`, a
vectorized MT19937, so no process imports ``numpy.random`` (and through
:mod:`secrets` and :mod:`hmac`, OpenSSL).  A pooled grid that can batch
imports numpy in the parent, before its first fork.
Each command runs in a fresh interpreter whose audit hook reports every
import of ``_hashlib``, ``numpy`` or ``numpy.random`` in the parent or a
forked pool worker, and which reports at exit whether ``_hashlib`` was
loaded and what it saw at each fork.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.utils.accel import get_numpy

#: Runs ``repro.cli`` with the given argv.  Every process writes one
#: ``IMPORT <where> <module>`` line to stderr per watched import; at exit the
#: parent prints one JSON line: ``_hashlib`` loaded, and whether it was
#: loaded at each fork.
WRAPPER = """
import atexit, json, os, runpy, sys
parent = os.getpid()
def watch(event, args):
    if event == "import" and args[0] in ("_hashlib", "numpy", "numpy.random"):
        where = "parent" if os.getpid() == parent else "worker"
        os.write(2, f"\\nIMPORT {where} {args[0]}\\n".encode())
sys.addaudithook(watch)
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
    report = json.loads(done.stderr.rsplit("OPENSSL ", 1)[1])
    report["imports"] = sorted({
        line.split(" ", 1)[1] for line in done.stderr.splitlines()
        if line.startswith("IMPORT ")
    })
    return report


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
    assert report == {"loaded": False, "forks": [], "imports": []}
    assert len(out.read_text().splitlines()) == 32


def test_campaign_report_loads_no_openssl(replicate_results, tmp_path):
    out, _ = replicate_results
    report = run_cli("campaign", "report", str(out), cwd=tmp_path)
    assert report == {"loaded": False, "forks": [], "imports": []}


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
    assert run_cli(*argv, cwd=tmp_path) == {"loaded": False, "forks": [], "imports": []}


@pytest.mark.parametrize(
    "grid, argv, batches",
    [
        (MIXED_GRID, [], True),
        (dict(MIXED_GRID, repetitions=2), [], False),
        (MIXED_GRID, ["--backend", "scalar"], False),
        (MIXED_GRID, ["--chunk", "2"], False),
    ],
    ids=["batchable", "two-reps", "scalar-backend", "chunk-below-floor"],
)
def test_pooled_campaign_loads_no_openssl_or_numpy_random(
    grid, argv, batches, tmp_path
):
    """No process of a pooled campaign, parent or forked worker, imports
    ``_hashlib`` or ``numpy.random``.  Only a grid that can batch loads
    numpy, when it is installed: in the parent, before its first fork, so
    no worker imports it again."""
    report = run_cli(
        "campaign", "run", write_grid(tmp_path, grid), "--workers", "2",
        *argv, "--quiet", "--out", str(tmp_path / "results.jsonl"), cwd=tmp_path,
    )
    # A non-empty list: the campaign did pool.
    assert report["forks"], report
    assert report["loaded"] is False and not any(report["forks"]), report
    loads_numpy = batches and get_numpy() is not None
    assert report["imports"] == (["parent numpy"] if loads_numpy else []), report
