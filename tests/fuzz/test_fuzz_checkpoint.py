"""The fuzz checkpoint ``<out>.partial``: a header, then one line a candidate.

The header is the run's configuration, which a resume must match whole;
line ``k + 1`` is candidate ``k`` — its finding's record or its bare
index — so the only crash window is a torn tail.  A fresh session renames
the header into place, a resume appends after the last whole line, and a
completed one renames its records into ``<out>``.  A SIGKILLed run resumes
to the bytes of an undisturbed one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.fuzz.runner as runner_mod
from repro.cli import main
from repro.fuzz import (
    FuzzConfig,
    FuzzSpace,
    read_checkpoint,
    run_fuzz,
    scan_findings,
    state_header,
    write_state,
)
from repro.utils.jsonl import Appender, checkpoint_path

#: Over-bound and eventful: findings fall on both sides of any cut.
SPACE = FuzzSpace(
    algorithms=("one-third-rule",), engines=("lockstep",), models=((4, 2, 0),)
)
CONFIG = FuzzConfig(space=SPACE, seed=7, budget=40, over_bound="allow")
HEADER = state_header(CONFIG)
#: The same cell as the CLI spells it (CI's over-bound positive control).
CLI_CELL = [
    "--seed", "7", "--models", "4,2,0", "--algorithms", "one-third-rule",
    "--engines", "lockstep", "--over-bound", "allow", "--quiet",
]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("checkpoint") / "baseline.jsonl"
    assert run_fuzz(CONFIG, out).findings > 2
    return out.read_bytes()


def interrupted(tmp_path, stop_after=20):
    out = tmp_path / "findings.jsonl"
    assert run_fuzz(CONFIG, out, stop_after=stop_after).interrupted
    return out, checkpoint_path(out)


def resume(out, **kwargs):
    recovered = read_checkpoint(checkpoint_path(out), HEADER)
    return run_fuzz(CONFIG, out, resume=recovered, **kwargs)


# ------------------------------------------------------------- the reader


def test_checkpoint_is_a_header_plus_one_line_per_candidate(tmp_path, baseline):
    out, partial = interrupted(tmp_path)
    header, *lines = map(json.loads, partial.read_text().splitlines())
    assert header == HEADER and not out.exists()
    assert [line if type(line) is int else line["index"] for line in lines] == [*range(20)]
    records = [line for line in lines if type(line) is not int]
    assert records == [r for r in map(json.loads, baseline.splitlines()) if r["index"] < 20]
    assert read_checkpoint(partial, HEADER) == (20, records)


@pytest.mark.parametrize("line", ["finding", "acknowledgement"])
def test_a_torn_last_line_is_not_recorded(tmp_path, baseline, line):
    """Cut anywhere inside the last line, newline included, the candidate
    is not recorded and the resume re-runs it to the single-shot bytes."""
    found = [json.loads(record)["index"] for record in baseline.splitlines()]
    index = found[-1] if line == "finding" else max(set(range(40)) - set(found))
    out, partial = interrupted(tmp_path, stop_after=index + 1)
    data = partial.read_bytes()
    start = data.rindex(b"\n", 0, len(data) - 1) + 1
    for cut in sorted({start + 1, (start + len(data)) // 2, len(data) - 1}):
        partial.write_bytes(data[:cut])
        assert read_checkpoint(partial, HEADER)[0] == index
        resume(out)
        assert out.read_bytes() == baseline and not partial.exists()


@pytest.mark.parametrize(
    "garbage", ["garbage", "", "10", "9.5", "true", '{"index":9}', "[9]"]
)
def test_a_whole_line_that_is_not_the_next_candidate_is_refused(tmp_path, garbage):
    """A garbage line mid-file, a lost line (a blank one is skipped), a line
    out of order or one that is not a finding record."""
    out, partial = interrupted(tmp_path)
    lines = partial.read_text().split("\n")
    lines[10] = garbage  # where candidate 9 was
    partial.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="checkpoint line") as excinfo:
        resume(out)
    assert str(partial) in str(excinfo.value)


def test_lines_past_the_budget_are_refused(tmp_path):
    out, partial = interrupted(tmp_path, stop_after=CONFIG.budget)
    with partial.open("a") as handle:
        handle.write("40\n")
    before = partial.read_bytes()
    with pytest.raises(ValueError, match="is not candidate 40"):
        resume(out)
    assert partial.read_bytes() == before and not out.exists()


def test_header_only_checkpoint_resumes_byte_identically(tmp_path, baseline):
    """A session killed before its first candidate left its header alone."""
    out, partial = interrupted(tmp_path)
    partial.write_text(partial.read_text().split("\n", 1)[0] + "\n")
    assert read_checkpoint(partial, HEADER) == (0, [])
    resumed = resume(out)
    assert (resumed.resumed_at, resumed.kept) == (0, 0)
    assert out.read_bytes() == baseline


def test_write_state_appends_one_line(tmp_path):
    partial = tmp_path / "x.jsonl.partial"
    partial.write_text("what a fresh checkpoint replaces\n")
    with Appender(partial, {"seed": 3}) as handle:
        write_state(handle, 0, None)
        write_state(handle, 1, {"kind": "safety", "index": 1})
        assert partial.read_bytes() == b'{"seed":3}\n0\n{"index":1,"kind":"safety"}\n'


# ---------------------------------------------------------------- the loop


def test_resume_appends_after_the_last_line(tmp_path, monkeypatch, baseline):
    out, partial = interrupted(tmp_path)
    with partial.open("ab") as handle:
        handle.write(b"2")
    at_first_write = []
    real = runner_mod.write_state

    def spy(handle, index, record):
        if not at_first_write:
            at_first_write.append(partial.read_text())
        real(handle, index, record)

    monkeypatch.setattr(runner_mod, "write_state", spy)
    resume(out, stop_after=5)
    header, *lines = at_first_write[0].split("\n")  # torn tail cut, nothing renamed
    assert json.loads(header) == HEADER
    assert lines[-1] == "" and lines[-2].startswith(("19", '{"candidate"'))
    assert partial.read_text().count("\n") == 1 + 20 + 5
    resume(out)
    assert out.read_bytes() == baseline


def test_checkpoint_gone_on_completion_kept_on_every_interruption(
    tmp_path, monkeypatch, baseline
):
    out, partial = interrupted(tmp_path, stop_after=8)
    real = runner_mod.classify_candidate
    calls = []

    def interrupting(*args, **kwargs):
        calls.append(1)
        if len(calls) > 6:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "classify_candidate", interrupting)
    with pytest.raises(KeyboardInterrupt):
        resume(out)
    monkeypatch.setattr(runner_mod, "classify_candidate", real)
    assert 8 < read_checkpoint(partial, HEADER)[0] < CONFIG.budget
    assert not out.exists()

    resume(out)
    assert not partial.exists()
    assert not partial.with_name(partial.name + ".tmp").exists()
    assert out.read_bytes() == baseline


def test_one_rename_per_file(tmp_path, monkeypatch):
    """A session renames its header into place and its corpus on
    completion, nothing per candidate; a resume renames only the corpus."""
    renamed = []
    real = os.replace

    def counting(src, dst, **kwargs):
        renamed.append(Path(dst).name)
        real(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", counting)
    config = FuzzConfig(seed=7, budget=200)
    fresh = tmp_path / "fresh.jsonl"
    run_fuzz(config, fresh)
    assert renamed == ["fresh.jsonl.partial", "fresh.jsonl"]

    cut = tmp_path / "cut.jsonl"
    run_fuzz(config, cut, stop_after=90)
    run_fuzz(config, cut, resume=read_checkpoint(checkpoint_path(cut), state_header(config)))
    assert renamed[2:] == ["cut.jsonl.partial", "cut.jsonl"]
    assert cut.read_bytes() == fresh.read_bytes()


# ------------------------------------------------------------------ SIGKILL


def test_sigkill_then_resume_equals_single_shot(tmp_path):
    single = tmp_path / "single.jsonl"
    assert main(["fuzz", "run", "--budget", "400", "--out", str(single), *CLI_CELL]) == 0

    out = tmp_path / "killed.jsonl"
    partial = checkpoint_path(out)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fuzz", "run", "--budget", "400",
         "--out", str(out), *CLI_CELL],
        env=env, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not (partial.exists() and partial.read_bytes().count(b"\n") > 100):
            assert process.poll() is None, "run ended before it could be killed"
            assert time.monotonic() < deadline, "no candidates recorded"
            time.sleep(0.005)
    finally:
        process.kill()  # SIGKILL: no handler runs, nothing is flushed
        process.wait(timeout=60)
    assert process.returncode == -signal.SIGKILL

    recorded = read_checkpoint(partial, state_header(dataclasses.replace(CONFIG, budget=400)))[0]
    assert 100 <= recorded < 400 and not out.exists()
    indices = [record["index"] for record in scan_findings(single)]
    assert min(indices) < recorded < max(indices), "findings on both sides"
    assert main(["fuzz", "run", "--budget", "400", "--out", str(out), "--resume", *CLI_CELL]) == 0
    assert out.read_bytes() == single.read_bytes()
    assert not partial.exists()
