"""The state sidecar as a header + append-only acknowledgement journal.

The header is the run's configuration, which a resume must match whole;
the reader's recovery point is the last newline-terminated ack (``0 0``
when there is none).  A fresh session renames the header into place, and
every session appends one line per candidate.  A SIGKILLed run resumes to
the bytes of an undisturbed one.
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
    read_state,
    run_fuzz,
    scan_findings,
    state_path,
    write_state,
)
from repro.fuzz.runner import state_header
from repro.utils.jsonl import Appender

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
    out = tmp_path_factory.mktemp("journal") / "baseline.jsonl"
    assert run_fuzz(CONFIG, out).findings > 2
    return out.read_bytes()


def interrupted(tmp_path, stop_after=20):
    out = tmp_path / "findings.jsonl"
    assert run_fuzz(CONFIG, out, stop_after=stop_after).interrupted
    return out, state_path(out)


# ------------------------------------------------------------- the reader


def test_journal_is_a_header_plus_one_ack_line_per_candidate(tmp_path):
    out, sidecar = interrupted(tmp_path)
    header, *acks = sidecar.read_text().splitlines()
    assert json.loads(header) == HEADER
    assert [int(line.split()[0]) for line in acks] == list(range(1, 21))
    assert read_state(sidecar, HEADER) == (20, len(scan_findings(out)))


def test_unterminated_ack_tail_is_ignored(tmp_path, baseline):
    out, sidecar = interrupted(tmp_path)
    before = read_state(sidecar, HEADER)
    with sidecar.open("ab") as handle:
        handle.write(b"21 9")  # torn: no newline, so never acknowledged
    assert read_state(sidecar, HEADER) == before
    run_fuzz(CONFIG, out, resume=True)
    assert out.read_bytes() == baseline


@pytest.mark.parametrize("garbage", ["garbage", "", "12 x", "9 1", "11 1 1"])
def test_complete_non_ack_line_mid_journal_raises(tmp_path, garbage):
    out, sidecar = interrupted(tmp_path)
    lines = sidecar.read_text().split("\n")
    lines[10] = garbage  # where the ack of candidate 9 ("10 <f>") was
    sidecar.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="line 11 is not the acknowledgement"):
        read_state(sidecar, HEADER)
    with pytest.raises(ValueError, match="corrupt fuzz state"):
        run_fuzz(CONFIG, out, resume=True)


def test_header_only_sidecar_resumes_byte_identically(tmp_path, baseline):
    """A journal killed before its first acknowledgement holds its header
    alone: the recovery point is candidate 0, every record is dropped."""
    out, sidecar = interrupted(tmp_path)
    findings = read_state(sidecar, HEADER)[1]
    sidecar.write_text(sidecar.read_text().split("\n", 1)[0] + "\n")
    assert read_state(sidecar, HEADER) == (0, 0)
    resumed = run_fuzz(CONFIG, out, resume=True)
    assert (resumed.resumed_at, resumed.kept, resumed.dropped) == (0, 0, findings)
    assert out.read_bytes() == baseline


def test_write_state_appends_one_line(tmp_path):
    sidecar = tmp_path / "x.state"
    sidecar.write_text("what a fresh journal replaces\n")
    with Appender(sidecar, {"seed": 3}) as journal:
        write_state(journal, 1, 0)
        write_state(journal, 2, 1)
        assert sidecar.read_bytes() == b'{"seed":3}\n1 0\n2 1\n'


# ------------------------------------------------------- resume integrity


def test_resume_refuses_a_corpus_that_lost_acknowledged_findings(tmp_path):
    out, sidecar = interrupted(tmp_path)
    acknowledged = read_state(sidecar, HEADER)[1]
    assert acknowledged > 1
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(lines[0])
    corpus, journal = out.read_bytes(), sidecar.read_bytes()
    with pytest.raises(
        ValueError, match=f"corpus holds 1 of the {acknowledged} acknowledged"
    ):
        run_fuzz(CONFIG, out, resume=True)
    assert (out.read_bytes(), sidecar.read_bytes()) == (corpus, journal)


@pytest.mark.parametrize(
    "field, acks",
    [("next", [f"{i} 0" for i in range(21, 42)]), ("findings", ["21 22"])],
)
def test_resume_refuses_an_out_of_range_recovery_point(tmp_path, field, acks):
    """Acknowledgements past the budget, or more findings than candidates."""
    out, sidecar = interrupted(tmp_path)
    with sidecar.open("a") as handle:
        handle.writelines(ack + "\n" for ack in acks)
    corpus, journal = out.read_bytes(), sidecar.read_bytes()
    with pytest.raises(ValueError) as excinfo:
        run_fuzz(CONFIG, out, resume=True)
    assert str(sidecar) in str(excinfo.value)
    assert repr(field) in str(excinfo.value)
    assert (out.read_bytes(), sidecar.read_bytes()) == (corpus, journal)


# ---------------------------------------------------------------- the loop


def test_resume_appends_after_the_last_acknowledgement(
    tmp_path, monkeypatch, baseline
):
    out, sidecar = interrupted(tmp_path)
    with sidecar.open("ab") as handle:
        handle.write(b"21 ")
    at_first_ack = []
    real = runner_mod.write_state

    def spy(journal, next_index, findings):
        if not at_first_ack:
            at_first_ack.append(sidecar.read_text())
        real(journal, next_index, findings)

    monkeypatch.setattr(runner_mod, "write_state", spy)
    run_fuzz(CONFIG, out, resume=True, stop_after=5)
    header, *acks = at_first_ack[0].split("\n")  # torn tail cut, nothing renamed
    assert json.loads(header) == HEADER
    assert acks[-1] == "" and acks[-2].startswith("20 ")
    assert sidecar.read_text().count("\n") == 1 + 20 + 5
    run_fuzz(CONFIG, out, resume=True)
    assert out.read_bytes() == baseline


def test_sidecar_gone_on_completion_kept_on_every_interruption(
    tmp_path, monkeypatch, baseline
):
    out, sidecar = interrupted(tmp_path, stop_after=8)
    assert read_state(sidecar, HEADER)[0] == 8

    real = runner_mod.classify_candidate
    calls = []

    def interrupting(*args, **kwargs):
        calls.append(1)
        if len(calls) > 6:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "classify_candidate", interrupting)
    with pytest.raises(KeyboardInterrupt):
        run_fuzz(CONFIG, out, resume=True)
    monkeypatch.setattr(runner_mod, "classify_candidate", real)
    assert 8 < read_state(sidecar, HEADER)[0] < CONFIG.budget

    run_fuzz(CONFIG, out, resume=True)
    assert not sidecar.exists()
    assert not sidecar.with_name(sidecar.name + ".tmp").exists()
    assert out.read_bytes() == baseline


def test_one_sidecar_rename_per_journal(tmp_path, monkeypatch):
    """The rename-per-candidate protocol cannot come back unnoticed, and a
    resume appends to the journal it continues."""
    renamed = []
    real = os.replace

    def counting(src, dst, **kwargs):
        renamed.append(Path(dst).name)
        real(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", counting)
    config = FuzzConfig(seed=7, budget=200)
    fresh = tmp_path / "fresh.jsonl"
    run_fuzz(config, fresh)
    assert renamed.count("fresh.jsonl.state") == 1

    cut = tmp_path / "cut.jsonl"
    run_fuzz(config, cut, stop_after=90)
    assert renamed.count("cut.jsonl.state") == 1
    run_fuzz(config, cut, resume=True)
    assert renamed.count("cut.jsonl.state") == 1
    assert cut.read_bytes() == fresh.read_bytes()


# ------------------------------------------------------------------ SIGKILL


def test_sigkill_then_resume_equals_single_shot(tmp_path):
    single = tmp_path / "single.jsonl"
    assert main(["fuzz", "run", "--budget", "400", "--out", str(single), *CLI_CELL]) == 0

    out = tmp_path / "killed.jsonl"
    sidecar = state_path(out)
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
        while not (sidecar.exists() and sidecar.read_bytes().count(b"\n") > 100):
            assert process.poll() is None, "run ended before it could be killed"
            assert time.monotonic() < deadline, "no acknowledgements appeared"
            time.sleep(0.005)
    finally:
        process.kill()  # SIGKILL: no handler runs, nothing is flushed
        process.wait(timeout=60)
    assert process.returncode == -signal.SIGKILL

    acknowledged = read_state(sidecar, state_header(dataclasses.replace(CONFIG, budget=400)))[0]
    assert 100 <= acknowledged < 400
    indices = [record["index"] for record in scan_findings(single)]
    assert min(indices) < acknowledged < max(indices), "findings on both sides"
    assert main(["fuzz", "run", "--budget", "400", "--out", str(out), "--resume", *CLI_CELL]) == 0
    assert out.read_bytes() == single.read_bytes()
    assert not sidecar.exists()
