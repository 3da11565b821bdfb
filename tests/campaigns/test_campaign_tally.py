"""What ``campaign run`` counts: the exit line counts every recorded row,
resumed ones too, while the progress line and ``campaign_finished`` count
only the rows this session executed.

Error rows and a row failing two safety properties are injected into the
per-run oracle (``--backend scalar``), so the grid holds ok, inadmissible,
error and unsafe rows.
"""

import json
import re

import pytest

from repro.campaigns import runner
from repro.cli import main

SPEC = {
    "name": "tally",
    # class-1 cannot host a Byzantine process at n = 4: six inadmissible rows
    "algorithms": ["pbft", "class-1"],
    "models": [[4, 1, 0]],
    "engines": ["lockstep"],
    "scenarios": ["fault-free"],
    "repetitions": 6,
    "seed": 5,
}
ERRORS = {1, 4}  # run ids turned into error rows
UNSAFE = 2  # run id failing agreement and validity: one violation
EXIT_LINE = "2 error row(s), 1 safety violation(s)"


@pytest.fixture()
def spec_path(tmp_path, monkeypatch):
    real = runner.execute_run

    def execute_run(run, *, timings=False):
        row = real(run, timings=timings)
        if run.run_id in ERRORS:
            row.update(status="error", error="injected")
        elif run.run_id == UNSAFE:
            row.update(agreement=False, validity=False)
        return row

    monkeypatch.setattr(runner, "execute_run", execute_run)
    path = tmp_path / "tally.json"
    path.write_text(json.dumps(SPEC))
    return path


def run_cli(spec_path, out, *extra):
    return main(
        ["campaign", "run", str(spec_path), "--out", str(out),
         "--backend", "scalar", *extra]
    )


def exit_lines(stderr):
    return [line for line in stderr.splitlines() if "error row(s)" in line]


def last_progress(stderr):
    """``(err, inadm)`` of the progress line's final render."""
    return tuple(map(int, re.findall(r"err (\d+)  inadm (\d+)", stderr)[-1]))


@pytest.mark.parametrize("report", [[], ["--no-report"]], ids=["report", "no-report"])
def test_a_fresh_run_counts_a_row_failing_two_properties_once(
    spec_path, tmp_path, capsys, report
):
    events = tmp_path / "events.jsonl"
    out = tmp_path / "fresh.jsonl"
    assert run_cli(spec_path, out, "--progress", "--events", str(events), *report) == 1
    captured = capsys.readouterr()
    assert exit_lines(captured.err) == [EXIT_LINE]
    assert ("safety-viol" in captured.out) == (not report)
    assert last_progress(captured.err) == (2, 6)
    finished = json.loads(events.read_text().splitlines()[-1])
    assert (finished["kind"], finished["rows"], finished["errors"]) == (
        "campaign_finished", 12, 2,
    )
    assert finished["backends"] == {"scalar": 12}


@pytest.mark.parametrize("report", [[], ["--no-report"]], ids=["report", "no-report"])
def test_a_resumed_run_counts_recorded_rows_only_in_its_exit_line(
    spec_path, tmp_path, capsys, report
):
    events = tmp_path / "events.jsonl"
    out = tmp_path / "resumed.jsonl"
    # Run ids 0-2 (an error and the unsafe row) are recorded, then stopped.
    assert run_cli(spec_path, out, "--stop-after", "3", "--quiet", *report) == 3
    assert exit_lines(capsys.readouterr().err) == []
    assert run_cli(
        spec_path, out, "--resume", "--progress", "--events", str(events), *report
    ) == 1
    captured = capsys.readouterr()
    assert exit_lines(captured.err) == [EXIT_LINE]
    # This session executed run ids 3-11: one error, six inadmissible.
    assert last_progress(captured.err) == (1, 6)
    kinds = [json.loads(line) for line in events.read_text().splitlines()]
    finished = kinds[-1]
    assert (finished["kind"], finished["rows"], finished["errors"]) == (
        "campaign_finished", 9, 1,
    )
    assert finished["backends"] == {"scalar": 9}
    skipped = [e["rows"] for e in kinds if e["kind"] == "resume_skipped"]
    assert skipped == [3]
