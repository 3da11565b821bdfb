"""The fuzz loop's determinism and crash-safety contracts.

For a fixed (seed, budget, space) the findings JSONL is byte-identical
across reruns and across arbitrary interruption/resume points — including
the crash window where a finding was appended but not yet acknowledged in
the state sidecar.
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
    replay_finding,
    run_fuzz,
    scan_findings,
    state_path,
)

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
#: The state header ``CLI_CONFIG`` writes: every ``FuzzConfig`` field and
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
    assert not state_path(out).exists(), "completed run removes its state"
    return out.read_bytes(), summary


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
    assert state_path(out).exists()
    resumed = run_fuzz(CONFIG, out, resume=True)
    assert not resumed.interrupted
    assert not state_path(out).exists()
    assert out.read_bytes() == baseline[0]


def test_resume_heals_the_crash_window(tmp_path, baseline):
    """A finding appended but unacknowledged is truncated and re-found."""
    out = tmp_path / "crashed.jsonl"
    run_fuzz(CONFIG, out, stop_after=6)
    records = scan_findings(out)
    # Simulate the torn state: a record past the acknowledged index plus
    # a torn half-line, exactly what a kill mid-append leaves behind.
    with out.open("a", encoding="utf-8") as handle:
        whole = records[0] if records else json.loads(baseline[0].splitlines()[0])
        fake = dict(whole, index=6)
        handle.write(json.dumps(fake, sort_keys=True) + "\n")
        handle.write('{"index": 7, "torn')
    run_fuzz(CONFIG, out, resume=True)
    assert out.read_bytes() == baseline[0]


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
            run_fuzz(other, out, resume=True)


def refused_resume(tmp_path, capsys, rewrite) -> str:
    """Stop a ``CLI_CONFIG`` session after 3 candidates, replace its state
    header (``HEADER``) by ``rewrite(header)`` and resume: assert it exits
    2 with corpus and state byte-untouched, and return the error line."""
    out = tmp_path / "foreign.jsonl"
    sidecar = state_path(out)
    assert main([*CLI_CONFIG, "--out", str(out), "--stop-after", "3"]) == 3
    header, acks = sidecar.read_text().split("\n", 1)
    assert header + "\n" == HEADER
    sidecar.write_text(rewrite(header) + acks)
    before = out.read_bytes(), sidecar.read_bytes()
    capsys.readouterr()
    assert main([*CLI_CONFIG, "--out", str(out), "--resume"]) == 2
    assert (out.read_bytes(), sidecar.read_bytes()) == before
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("cannot resume: ")
    return err


@pytest.mark.parametrize(
    "key, value",
    [("shrink", False), ("mutate_prob", 0.25), ("shrink_attempts", 2)],
    ids=["no-shrink", "mutate-prob", "shrink-attempts"],
)
def test_resume_refuses_a_state_written_with_another_fixed_knob(
    tmp_path, capsys, key, value
):
    """A state from a ``--no-shrink``, ``--mutate-prob 0.25`` or
    ``--shrink-attempts 2`` session is refused."""

    def rewrite(header):
        return json.dumps(dict(json.loads(header), **{key: value}), sort_keys=True) + "\n"

    err = refused_resume(tmp_path, capsys, rewrite)
    assert f"({key}: state has {value!r}" in err


def test_resume_refuses_a_state_written_before_the_header_was_compared_whole(
    tmp_path, capsys
):
    """No compatibility path: an earlier checkout's header is refused on
    the first key it differs in."""
    err = refused_resume(tmp_path, capsys, lambda _header: OLD_HEADER)
    assert "(findings: state has 0, this run has None)" in err


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
    sidecar = state_path(out)
    assert main([*CLI_CONFIG, "--out", str(out), "--stop-after", "3"]) == 3
    before = out.read_bytes(), sidecar.read_bytes()
    if name.isupper():
        monkeypatch.setattr(runner_mod, name, flipped(getattr(runner_mod, name)))
    else:
        real = repro.fuzz.run_fuzz

        def run_flipped(config, *args, **kwargs):
            other = copy.copy(config)
            object.__setattr__(other, name, flipped(getattr(config, name)))
            assert runner_mod.state_header(other) != runner_mod.state_header(config)
            return real(other, *args, **kwargs)

        monkeypatch.setattr(repro.fuzz, "run_fuzz", run_flipped)
    capsys.readouterr()
    assert main([*CLI_CONFIG, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("cannot resume: ")
    assert "was written by a different configuration (" in err
    if not name.isupper():
        assert f"({name}: state has " in err
    assert (out.read_bytes(), sidecar.read_bytes()) == before


def test_fresh_run_refuses_existing_state(tmp_path):
    out = tmp_path / "busy.jsonl"
    run_fuzz(CONFIG, out, stop_after=3)
    with pytest.raises(FileExistsError):
        run_fuzz(CONFIG, out)


def test_resume_without_state_raises(tmp_path, baseline):
    out = tmp_path / "done.jsonl"
    run_fuzz(CONFIG, out)
    with pytest.raises(ValueError):
        run_fuzz(CONFIG, out, resume=True)


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
