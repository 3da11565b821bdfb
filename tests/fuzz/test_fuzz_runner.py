"""The fuzz loop's determinism and crash-safety contracts.

For a fixed (seed, budget, space) the findings JSONL is byte-identical
across reruns and across arbitrary interruption/resume points, and a
resume refuses a checkpoint written under any other configuration.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

import repro.fuzz
import repro.fuzz.runner as runner_mod
from repro.cli import main
from repro.fuzz import (
    FuzzConfig,
    FuzzSpace,
    read_checkpoint,
    replay_finding,
    run_fuzz,
    state_header,
)
from repro.utils.jsonl import checkpoint_path

#: Small but eventful: the (4,2,0) one-third-rule cell is far over-bound,
#: so this budget reliably produces both safety and liveness findings.
SPACE = FuzzSpace(
    algorithms=("one-third-rule", "pbft"),
    engines=("lockstep",),
    models=((4, 2, 0), (4, 1, 0)),
)
CONFIG = FuzzConfig(space=SPACE, seed=11, budget=16, over_bound="allow")
#: ``CONFIG`` as the CLI spells it.
CLI_CONFIG = [
    "fuzz", "run", "--seed", "11", "--budget", "16", "--algorithms",
    "one-third-rule", "pbft", "--engines", "lockstep", "--models", "4,2,0",
    "4,1,0", "--over-bound", "allow", "--quiet",
]
#: The checkpoint header ``CLI_CONFIG`` writes: every ``FuzzConfig`` field and
#: the two fixed knobs, nothing else.
HEADER = (
    '{"budget":16,"mutate_prob":0.5,"over_bound":"allow","seed":11,'
    '"shrink_attempts":160,"space":"6eab52724060861f"}\n'
)
#: ``HEADER`` as checkouts before the header was compared whole wrote it:
#: with the session's start (``next`` / ``findings``), a version and a
#: ``shrink`` flag.
OLD_HEADER = (
    '{"budget":16,"findings":0,"mutate_prob":0.5,"next":0,'
    '"over_bound":"allow","seed":11,"shrink":true,"shrink_attempts":160,'
    '"space":"6eab52724060861f","version":1}\n'
)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "baseline.jsonl"
    summary = run_fuzz(CONFIG, out)
    assert summary.findings > 0, "fixture config must find violations"
    assert not checkpoint_path(out).exists(), "completed run removes its checkpoint"
    return out.read_bytes(), summary


def resume(config, out):
    recovered = read_checkpoint(checkpoint_path(out), state_header(config))
    return run_fuzz(config, out, resume=recovered)


def test_rerun_is_byte_identical(tmp_path, baseline):
    out = tmp_path / "again.jsonl"
    run_fuzz(CONFIG, out)
    assert out.read_bytes() == baseline[0]


def test_stop_after_leaves_valid_state_and_resume_completes(
    tmp_path, baseline
):
    out = tmp_path / "interrupted.jsonl"
    summary = run_fuzz(CONFIG, out, stop_after=5)
    assert summary.interrupted
    assert summary.next_index == 5
    assert checkpoint_path(out).exists()
    resumed = resume(CONFIG, out)
    assert not resumed.interrupted
    assert not checkpoint_path(out).exists()
    assert out.read_bytes() == baseline[0]
    assert (resumed.findings, resumed.by_kind) == (baseline[1].findings, baseline[1].by_kind)


def test_resume_refuses_foreign_configuration(tmp_path):
    out = tmp_path / "foreign.jsonl"
    run_fuzz(CONFIG, out, stop_after=3)
    for change in (
        {"seed": 12},
        {"budget": 99},
        {"over_bound": "never"},
        {"space": FuzzSpace(algorithms=("pbft",), engines=("lockstep",))},
    ):
        other = dataclasses.replace(CONFIG, **change)
        with pytest.raises(ValueError):
            resume(other, out)


def refused_resume(tmp_path, capsys, rewrite) -> str:
    """Stop a ``CLI_CONFIG`` session after 3 candidates, replace its
    checkpoint header (``HEADER``) by ``rewrite(header)`` and resume: assert
    it exits 2 with the checkpoint byte-untouched, and return the error line."""
    out = tmp_path / "foreign.jsonl"
    partial = checkpoint_path(out)
    assert main([*CLI_CONFIG, "--out", str(out), "--stop-after", "3"]) == 3
    header, lines = partial.read_text().split("\n", 1)
    assert header + "\n" == HEADER
    partial.write_text(rewrite(header) + lines)
    before = partial.read_bytes()
    capsys.readouterr()
    assert main([*CLI_CONFIG, "--out", str(out), "--resume"]) == 2
    assert partial.read_bytes() == before and not out.exists()
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("cannot resume: ")
    return err


@pytest.mark.parametrize(
    "key, value",
    [("shrink", False), ("mutate_prob", 0.25), ("shrink_attempts", 2)],
    ids=["no-shrink", "mutate-prob", "shrink-attempts"],
)
def test_resume_refuses_a_checkpoint_written_with_another_fixed_knob(
    tmp_path, capsys, key, value
):
    """A checkpoint from a ``--no-shrink``, ``--mutate-prob 0.25`` or
    ``--shrink-attempts 2`` session is refused."""

    def rewrite(header):
        return json.dumps(dict(json.loads(header), **{key: value}), sort_keys=True) + "\n"

    err = refused_resume(tmp_path, capsys, rewrite)
    assert f"({key}: checkpoint has {value!r}" in err


def test_resume_refuses_a_header_written_before_it_was_compared_whole(
    tmp_path, capsys
):
    """No compatibility path: an earlier checkout's header is refused on
    the first key it differs in."""
    err = refused_resume(tmp_path, capsys, lambda _header: OLD_HEADER)
    assert "(findings: checkpoint has 0, this run has None)" in err


def flipped(value):
    """Another value of ``value``'s shape, built past any validation (a
    resume compares headers before it runs anything)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-flipped"
    if isinstance(value, tuple):
        return value[::-1]
    if value is None:
        return None
    other = copy.copy(value)  # a frozen dataclass: each field flipped
    for each in dataclasses.fields(value):
        object.__setattr__(other, each.name, flipped(getattr(value, each.name)))
    return other


@pytest.mark.parametrize(
    "name",
    [each.name for each in dataclasses.fields(FuzzConfig)]
    + ["MUTATE_PROB", "DEFAULT_MAX_ATTEMPTS"],
)
def test_resume_refuses_any_changed_field_or_fixed_knob(
    tmp_path, capsys, monkeypatch, name
):
    """Every ``FuzzConfig`` field — one added later too — and each fixed
    knob the runner records: changed alone, the resume exits 2 with both
    files untouched."""
    out = tmp_path / "flip.jsonl"
    partial = checkpoint_path(out)
    assert main([*CLI_CONFIG, "--out", str(out), "--stop-after", "3"]) == 3
    before = partial.read_bytes()
    if name.isupper():
        monkeypatch.setattr(runner_mod, name, flipped(getattr(runner_mod, name)))
    else:
        real = repro.fuzz.state_header

        def header_flipped(config):
            other = copy.copy(config)
            object.__setattr__(other, name, flipped(getattr(config, name)))
            assert real(other) != real(config)
            return real(other)

        monkeypatch.setattr(repro.fuzz, "state_header", header_flipped)
    capsys.readouterr()
    assert main([*CLI_CONFIG, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("cannot resume: ")
    assert "was written by a different configuration (" in err
    if not name.isupper():
        assert f"({name}: checkpoint has " in err
    assert partial.read_bytes() == before and not out.exists()


def test_a_fresh_session_starts_the_checkpoint_afresh(tmp_path, baseline):
    """Below the CLI (whose refusal asks for ``--resume``), a fresh session
    replaces a stale checkpoint with its own."""
    out = tmp_path / "stale.jsonl"
    run_fuzz(dataclasses.replace(CONFIG, seed=12), out, stop_after=3)
    run_fuzz(CONFIG, out)
    assert out.read_bytes() == baseline[0] and not checkpoint_path(out).exists()


def test_findings_replay_and_shrink_forms_reproduce(baseline):
    _bytes, _summary = baseline
    records = [
        json.loads(line) for line in _bytes.decode().splitlines() if line
    ]
    assert records
    for record in records[:3]:
        verdict = replay_finding(record)
        assert verdict.kind == record["kind"]
        assert list(verdict.violated) == record["violated"]
        if "shrunk" in record:
            shrunk = replay_finding(record, shrunk=True)
            assert shrunk.kind == record["kind"]


def test_records_are_self_contained(baseline):
    _bytes, _summary = baseline
    record = json.loads(_bytes.decode().splitlines()[0])
    for field in (
        "index", "kind", "violated", "candidate", "key", "seed",
        "fuzz_seed", "result", "over_bound",
    ):
        assert field in record
    assert record["result"]["status"] is not None
