"""The state sidecar as a header + append-only acknowledgement journal.

The reader's recovery point is the last newline-terminated ack (the
header's own ``next`` / ``findings`` when there is none, which is how a
one-document sidecar of the earlier format reads); the loop appends one
line per candidate and renames only the header into place, once per
session.  A SIGKILLed run resumes to the bytes of an undisturbed one.
"""

from __future__ import annotations

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
    open_journal,
    read_state,
    run_fuzz,
    scan_findings,
    state_path,
    write_state,
)

#: Over-bound and eventful: findings fall on both sides of any cut.
SPACE = FuzzSpace(
    algorithms=("one-third-rule",), engines=("lockstep",), models=((4, 2, 0),)
)
CONFIG = FuzzConfig(space=SPACE, seed=7, budget=40, over_bound="allow")
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
    assert json.loads(header)["next"] == 0
    assert [int(line.split()[0]) for line in acks] == list(range(1, 21))
    state = read_state(sidecar)
    assert state["next"] == 20
    assert state["findings"] == len(scan_findings(out))


def test_unterminated_ack_tail_is_ignored(tmp_path, baseline):
    out, sidecar = interrupted(tmp_path)
    before = read_state(sidecar)
    with sidecar.open("ab") as handle:
        handle.write(b"21 9")  # torn: no newline, so never acknowledged
    assert read_state(sidecar) == before
    run_fuzz(CONFIG, out, resume=True)
    assert out.read_bytes() == baseline


@pytest.mark.parametrize("garbage", ["garbage", "", "12 x", "9 1", "11 1 1"])
def test_complete_non_ack_line_mid_journal_raises(tmp_path, garbage):
    out, sidecar = interrupted(tmp_path)
    lines = sidecar.read_text().split("\n")
    lines[10] = garbage  # where the ack of candidate 9 ("10 <f>") was
    sidecar.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="line 11 is not the acknowledgement"):
        read_state(sidecar)
    with pytest.raises(ValueError, match="corrupt fuzz state"):
        run_fuzz(CONFIG, out, resume=True)


def test_header_only_sidecar_resumes_byte_identically(tmp_path, baseline):
    """What the one-document-per-candidate format left behind still resumes."""
    out, sidecar = interrupted(tmp_path)
    state = read_state(sidecar)
    sidecar.write_text(json.dumps(state, sort_keys=True) + "\n")
    assert read_state(sidecar) == state
    resumed = run_fuzz(CONFIG, out, resume=True)
    assert (resumed.resumed_at, resumed.kept) == (20, state["findings"])
    assert out.read_bytes() == baseline


def test_write_state_appends_one_line(tmp_path):
    sidecar = tmp_path / "x.state"
    with open_journal(sidecar, {"next": 3}) as journal:
        write_state(journal, 4, 1)
        write_state(journal, 5, 1)
        assert sidecar.read_bytes() == b'{"next":3}\n4 1\n5 1\n'


# ------------------------------------------------------- resume integrity


def test_resume_refuses_a_corpus_that_lost_acknowledged_findings(tmp_path):
    out, sidecar = interrupted(tmp_path)
    acknowledged = read_state(sidecar)["findings"]
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
    "field, value",
    [("next", 999), ("next", "abc"), ("next", -1), ("next", True),
     ("findings", 21), ("findings", None), ("budget", "40")],
)
def test_resume_refuses_an_out_of_range_recovery_point(tmp_path, field, value):
    out, sidecar = interrupted(tmp_path)
    state = read_state(sidecar)
    state[field] = value
    sidecar.write_text(json.dumps(state) + "\n")
    corpus, journal = out.read_bytes(), sidecar.read_bytes()
    with pytest.raises(ValueError) as excinfo:
        run_fuzz(CONFIG, out, resume=True)
    assert str(sidecar) in str(excinfo.value)
    assert repr(field) in str(excinfo.value)
    assert (out.read_bytes(), sidecar.read_bytes()) == (corpus, journal)


# ---------------------------------------------------------------- the loop


def test_resume_restarts_the_journal_at_the_recovery_point(
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
    (header,) = at_first_ack[0].splitlines()  # torn tail healed, acks compacted
    assert json.loads(header)["next"] == 20
    assert json.loads(header)["findings"] == len(
        [r for r in scan_findings(out) if r["index"] < 20]
    )
    assert sidecar.read_text().count("\n") == 1 + 5
    run_fuzz(CONFIG, out, resume=True)
    assert out.read_bytes() == baseline


def test_sidecar_gone_on_completion_kept_on_every_interruption(
    tmp_path, monkeypatch, baseline
):
    out, sidecar = interrupted(tmp_path, stop_after=8)
    assert read_state(sidecar)["next"] == 8

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
    assert 8 < read_state(sidecar)["next"] < CONFIG.budget

    run_fuzz(CONFIG, out, resume=True)
    assert not sidecar.exists()
    assert not sidecar.with_name(sidecar.name + ".tmp").exists()
    assert out.read_bytes() == baseline


def test_one_sidecar_rename_per_session(tmp_path, monkeypatch):
    """The rename-per-candidate protocol cannot come back unnoticed."""
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
    assert renamed.count("cut.jsonl.state") == 2
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

    acknowledged = read_state(sidecar)["next"]
    assert 100 <= acknowledged < 400
    indices = [record["index"] for record in scan_findings(single)]
    assert min(indices) < acknowledged < max(indices), "findings on both sides"
    assert main(["fuzz", "run", "--budget", "400", "--out", str(out), "--resume", *CLI_CELL]) == 0
    assert out.read_bytes() == single.read_bytes()
    assert not sidecar.exists()
