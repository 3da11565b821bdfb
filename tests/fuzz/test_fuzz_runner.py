"""The fuzz loop's determinism and crash-safety contracts.

For a fixed (seed, budget, space) the findings JSONL is byte-identical
across reruns and across arbitrary interruption/resume points — including
the crash window where a finding was appended but not yet acknowledged in
the state sidecar.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

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
        fake = dict(records[0]) if records else {"index": 99}
        fake["index"] = 6
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
