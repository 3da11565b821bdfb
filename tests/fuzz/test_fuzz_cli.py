"""``repro fuzz run|replay|shrink``: exit codes mirror ``campaign run``.

The interrupt contract is the satellite under test: ``--stop-after``
leaves a valid checkpoint and exits 3, Ctrl-C (KeyboardInterrupt) exits
130 with the checkpoint retained, ``--resume`` completes byte-identically,
and usage errors exit 2.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main

OVER_BOUND_ARGS = [
    "--models", "4,2,0",
    "--algorithms", "one-third-rule",
    "--engines", "lockstep",
    "--over-bound", "allow",
    "--quiet",
]


def run_args(out, *extra):
    return [
        "fuzz", "run", "--seed", "7", "--budget", "16", "--out", str(out),
        *OVER_BOUND_ARGS, *extra,
    ]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-cli") / "findings.jsonl"
    assert main(run_args(out)) == 0
    assert out.exists() and out.stat().st_size > 0
    return out


def test_stop_after_exits_3_and_resume_matches(tmp_path, corpus):
    out = tmp_path / "findings.jsonl"
    assert main(run_args(out, "--stop-after", "4")) == 3
    assert (tmp_path / "findings.jsonl.partial").exists()
    assert main(run_args(out, "--resume")) == 0
    assert not (tmp_path / "findings.jsonl.partial").exists()
    assert out.read_bytes() == corpus.read_bytes()


def test_a_rerun_leaves_a_finished_corpus_until_it_completes(tmp_path, corpus):
    """A fresh session used to empty ``<out>`` when it started."""
    out = tmp_path / "findings.jsonl"
    out.write_bytes(corpus.read_bytes())
    assert main(run_args(out, "--stop-after", "1")) == 3
    assert out.read_bytes() == corpus.read_bytes()


def test_keyboard_interrupt_exits_130_and_keeps_state(
    tmp_path, monkeypatch, capsys
):
    """Ctrl-C mid-loop: exit 130, checkpoint retained, resume completes."""
    out = tmp_path / "findings.jsonl"
    import repro.fuzz.runner as runner_mod

    real_classify = runner_mod.classify_candidate
    calls = {"n": 0}

    def interrupting(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 3:
            raise KeyboardInterrupt
        return real_classify(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "classify_candidate", interrupting)
    assert main(run_args(out)) == 130
    assert "resume" in capsys.readouterr().err
    assert (tmp_path / "findings.jsonl.partial").exists()
    monkeypatch.setattr(runner_mod, "classify_candidate", real_classify)
    assert main(run_args(out, "--resume")) == 0


def test_usage_errors_exit_2(tmp_path, corpus):
    out = tmp_path / "findings.jsonl"
    # malformed --models
    assert main(run_args(out, "--models", "4:2:0")) == 2
    assert main(run_args(out, "--models", "nope")) == 2
    # resume with nothing to resume
    assert main(run_args(tmp_path / "void.jsonl", "--resume")) == 2
    # checkpoint exists without --resume
    assert main(run_args(out, "--stop-after", "2")) == 3
    assert main(run_args(out)) == 2


@pytest.mark.parametrize(
    "typo", [["--algorithms", "nope"], ["--strategies", "equivocatr"]]
)
def test_misspelt_names_exit_2_before_the_banner(tmp_path, capsys, typo):
    """A typo used to run, and be recorded as ``error`` findings."""
    out = tmp_path / "findings.jsonl"
    assert main(["fuzz", "run", "--budget", "5", "--out", str(out), *typo]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unknown ") and "; known: [" in err
    assert "fuzz: seed" not in err and not out.exists()


@pytest.mark.parametrize(
    "repeat, axis, entry",
    [
        (["--algorithms", "pbft", "pbft"], "algorithms", "'pbft'"),
        (["--engines", "timed", "timed"], "engines", "'timed'"),
        (["--strategies", "silent", "silent"], "strategies", "'silent'"),
        (["--models", "4,1,0", "4,1,0"], "models", "(4, 1, 0)"),
    ],
)
def test_repeated_axis_entries_exit_2_and_write_nothing(
    tmp_path, capsys, repeat, axis, entry
):
    """A repeat used to run, doubling that entry's draw weight."""
    out = tmp_path / "findings.jsonl"
    assert main(["fuzz", "run", "--budget", "1", "--out", str(out), *repeat]) == 2
    assert capsys.readouterr().err == f"axis {axis!r} repeats {entry}\n"
    assert sorted(tmp_path.iterdir()) == []


def test_replay_reproduces_and_reports(corpus, capsys):
    assert main(["fuzz", "replay", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "finding reproduced" in out
    assert main(["fuzz", "replay", str(corpus), "--shrunk"]) == 0


def test_replay_missing_index_exits_2(corpus, capsys):
    assert main(["fuzz", "replay", str(corpus), "--index", "99999"]) == 2
    assert "no finding with index" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["replay", "shrink"])
def test_a_missing_corpus_is_not_an_empty_one(tmp_path, capsys, command):
    """A mistyped path used to print ``no findings in <path>``."""
    missing = tmp_path / "typo.jsonl"
    assert main(["fuzz", command, str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"cannot read findings {missing}: no such file\n"
    )


@pytest.mark.parametrize("command", ["replay", "shrink"])
def test_a_record_missing_its_fields_exits_2(tmp_path, capsys, command):
    """An integer ``index`` alone used to pass, then ``KeyError`` escaped."""
    findings = tmp_path / "findings.jsonl"
    findings.write_text('{"index":0,"kind":"safety","candidate":{"algorithm":"pbft"}}\n')
    assert main(["fuzz", command, str(findings)]) == 2
    assert capsys.readouterr().err == (
        f"cannot read findings {findings}: {findings}: findings line at byte 0 "
        "lacks violated, over_bound, key, seed, fuzz_seed, result\n"
    )


def test_shrink_command_prints_minimal_candidate(corpus, capsys):
    assert main(["fuzz", "shrink", str(corpus)]) == 0
    out = capsys.readouterr().out
    tail = out.strip().splitlines()[-1]
    payload = json.loads(tail)
    record = json.loads(corpus.read_text().splitlines()[0])
    # Re-shrinking from the corpus reproduces the recorded minimal form.
    assert payload["shrunk_key"] == record["shrunk_key"]
    assert payload["shrink_ops"] == record["shrink_ops"]


def test_fail_on_finding_gates_ci(tmp_path, corpus):
    out = tmp_path / "gate.jsonl"
    assert main(run_args(out, "--fail-on-finding")) == 1
    # A resume gates on the whole corpus, not on what it found itself.
    resumed = tmp_path / "resumed.jsonl"
    assert main(run_args(resumed, "--stop-after", "15")) == 3
    assert main(run_args(resumed, "--resume", "--fail-on-finding")) == 1
    # An in-bounds space stays quiet and passes the gate.
    quiet = tmp_path / "quiet.jsonl"
    code = main([
        "fuzz", "run", "--seed", "7", "--budget", "8", "--out", str(quiet),
        "--models", "4,1,0", "--algorithms", "pbft", "--engines", "lockstep",
        "--quiet", "--fail-on-finding",
    ])
    assert code == 0


def test_unwritable_out_exits_2_and_leaves_nothing(tmp_path, capsys):
    """Missing parent, parent is a file, target is a directory."""
    blocker = tmp_path / "file"
    blocker.write_text("x")
    directory = tmp_path / "dir.jsonl"
    directory.mkdir()
    before = sorted(tmp_path.rglob("*"))
    for out in ("/proc/nope/x.jsonl", blocker / "x.jsonl", directory):
        assert main(run_args(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    # No stale sidecar: the directory case does not poison the next run.
    directory.rmdir()
    assert main(run_args(directory)) == 0


def test_resume_reports_the_recovery_point_even_when_quiet(tmp_path, capsys):
    out = tmp_path / "findings.jsonl"
    assert main(run_args(out, "--stop-after", "15")) == 3
    capsys.readouterr()
    assert main(run_args(out, "--resume")) == 0
    assert capsys.readouterr().err.endswith(  # seed 7 first finds at index 14
        "resumed: 15 candidate(s) recorded, 1 finding(s) kept\n"
    )


def test_a_resumed_summary_labels_its_session_counts(tmp_path, capsys):
    """The counts in parentheses are this session's, the findings the
    corpus's: a resumed summary used to print them side by side unlabelled."""
    out = tmp_path / "findings.jsonl"
    assert main(run_args(out)) == 0
    fresh = capsys.readouterr().err
    assert main(run_args(out, "--stop-after", "4")) == 3
    capsys.readouterr()
    assert main(run_args(out, "--resume")) == 0
    resumed = capsys.readouterr().err
    counts = re.search(
        r"\(this session: (\d+) executed, (\d+) duplicate\(s\), (\d+) skipped\): ", resumed
    )
    assert counts is not None, resumed
    assert sum(map(int, counts.groups())) == 16 - 4
    assert "this session" not in fresh


def test_resume_refuses_a_record_without_its_candidate_untouched(tmp_path, capsys):
    out = tmp_path / "findings.jsonl"
    partial = tmp_path / "findings.jsonl.partial"
    assert main(run_args(out, "--stop-after", "15")) == 3
    lines = partial.read_text().splitlines(keepends=True)
    record = json.loads(lines[-1])
    del record["candidate"]
    lines[-1] = json.dumps(record) + "\n"
    partial.write_text("".join(lines))
    before = partial.read_bytes()
    capsys.readouterr()
    assert main(run_args(out, "--resume")) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"cannot resume: {partial}: checkpoint line at byte "
        f"{len(before) - len(lines[-1])} lacks candidate; "
        "delete the checkpoint to start over"
    )
    assert partial.read_bytes() == before and not out.exists()


@pytest.mark.parametrize("bad", [999, "abc"])
def test_resume_with_a_next_in_the_header_exits_2_untouched(tmp_path, capsys, bad):
    """The header holds no recovery point: one that does is refused."""
    out = tmp_path / "findings.jsonl"
    partial = tmp_path / "findings.jsonl.partial"
    assert main(run_args(out, "--stop-after", "4")) == 3
    header = json.loads(partial.read_text().splitlines()[0])
    partial.write_text(json.dumps(dict(header, next=bad)) + "\n")
    before = partial.read_bytes()
    capsys.readouterr()
    assert main(run_args(out, "--resume")) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("cannot resume: ")
    assert str(partial) in err and f"(next: checkpoint has {bad!r}, this run has None)" in err
    assert partial.read_bytes() == before and not out.exists()
