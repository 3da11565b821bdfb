"""CLI observability surface: --events inertness, --progress, resume
reporting, ``repro profile`` and the report's timing columns."""

import json

import pytest

from repro.cli import main
from repro.observability import read_events
from repro.utils.jsonl import checkpoint_path

SPEC = {
    "name": "obs-unit",
    "algorithms": ["pbft", "class-2"],
    "models": [[4, 1, 0]],
    "engines": ["lockstep", "timed"],
    "scenarios": ["fault-free", "worst_case"],
    "repetitions": 2,
    "seed": 11,
    "max_phases": 12,
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


def run_cli(spec_path, out, *extra):
    return main(
        [
            "campaign", "run", str(spec_path),
            "--out", str(out), "--quiet", "--no-report", *extra,
        ]
    )


class TestEventsSidecar:
    def test_event_stream_covers_the_campaign_lifecycle(
        self, spec_path, tmp_path, capsys
    ):
        out = tmp_path / "out.jsonl"
        events = tmp_path / "events.jsonl"
        assert run_cli(
            spec_path, out, "--events", str(events), "--workers", "2"
        ) == 0
        capsys.readouterr()
        stream = read_events(events)
        kinds = [event["kind"] for event in stream]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert "chunk_dispatched" in kinds

        started = stream[0]
        total = SPEC["algorithms"].__len__() * 2 * 2 * 2  # grid size: 16
        assert started["total_runs"] == total
        assert started["workers"] == 2
        assert started["resume"] is False

        completed = [e for e in stream if e["kind"] == "row_completed"]
        rows = out.read_text().strip().splitlines()
        assert len(completed) == len(rows)  # one event per result row
        assert {e["run_id"] for e in completed} == {
            json.loads(row)["run_id"] for row in rows
        }
        for event in completed:
            assert event["status"] in {
                "ok", "error", "inadmissible", "inapplicable"
            }
            assert event["duration_ms"] > 0
            assert isinstance(event["pid"], int)

        finished = stream[-1]
        assert finished["rows"] == total
        assert finished["interrupted"] is False
        for event in stream:
            assert "ts" in event

    def test_rows_never_leak_volatile_fields(self, spec_path, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        events = tmp_path / "events.jsonl"
        assert run_cli(spec_path, out, "--events", str(events)) == 0
        capsys.readouterr()
        for line in out.read_text().splitlines():
            assert not any(key.startswith("_") for key in json.loads(line))

    def test_fresh_run_truncates_stale_event_file(
        self, spec_path, tmp_path, capsys
    ):
        events = tmp_path / "events.jsonl"
        events.write_text('{"ts": 0, "kind": "campaign_started"}\n' * 5)
        out = tmp_path / "out.jsonl"
        assert run_cli(spec_path, out, "--events", str(events)) == 0
        capsys.readouterr()
        stream = read_events(events)
        assert sum(e["kind"] == "campaign_started" for e in stream) == 1

    @pytest.mark.parametrize("names", ["out", "checkpoint"])
    @pytest.mark.parametrize("resume", [False, True])
    def test_events_may_not_name_a_result_file(
        self, spec_path, tmp_path, capsys, names, resume
    ):
        """Used to exit 0 with the sidecar renamed away (``--out``) or to
        interleave events into the checkpoint and die in finalize."""
        out = tmp_path / "same.jsonl"
        events = out if names == "out" else checkpoint_path(out)
        if resume:
            assert run_cli(spec_path, out, "--stop-after", "4") == 3
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        extra = ["--resume"] if resume else []
        assert run_cli(spec_path, out, "--events", str(events), *extra) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"cannot write {events}: ")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def resumable(command, spec_path, out):
    """``(argv, total)``: a quiet ``campaign run`` or ``fuzz run`` to ``out``
    and how many runs or candidates it has."""
    if command == "campaign":
        argv, total = ["campaign", "run", str(spec_path), "--no-report"], 16
    else:
        argv, total = ["fuzz", "run", "--budget", "6"], 6
    return argv + ["--out", str(out), "--quiet"], total


class TestResumeReporting:
    @pytest.mark.parametrize("command", ["campaign", "fuzz"])
    def test_one_resume_and_stop_contract(
        self, spec_path, tmp_path, capsys, command
    ):
        """``campaign run`` and ``fuzz run`` refuse, stop and retain with
        the same one-line shapes, naming the same checkpoint."""
        out = tmp_path / "out.jsonl"
        argv, _total = resumable(command, spec_path, out)
        state, unit = checkpoint_path(out), "run" if command == "campaign" else "candidate"
        assert main(argv + ["--resume"]) == 2
        assert capsys.readouterr().err == (
            f"nothing to resume: no checkpoint at {state}\n"
        )
        assert main(argv + ["--stop-after", "2"]) == 3
        assert capsys.readouterr().err.endswith(
            f"stopped after 2 {unit}(s); checkpoint retained at {state} — "
            "rerun with --resume to complete\n"
        )
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"checkpoint {state} already exists; pass --resume to complete it "
            "or delete it to start over\n"
        )
        assert main(argv + ["--resume"]) == 0
        assert not state.exists()

    @pytest.mark.parametrize(
        "case", ["no checkpoint", "no --resume", "changed seed", "corrupt middle line"]
    )
    @pytest.mark.parametrize("command", ["campaign", "fuzz"])
    def test_a_refusal_prints_one_line_and_touches_nothing(
        self, spec_path, tmp_path, capsys, command, case
    ):
        """Refused before the banner: nothing on stdout, one line on
        stderr, exit 2 and the checkpoint byte-unchanged."""
        out = tmp_path / "out.jsonl"
        argv, _total = resumable(command, spec_path, out)
        state = checkpoint_path(out)
        if case != "no checkpoint":
            assert main(argv + ["--stop-after", "4"]) == 3
        if case == "corrupt middle line":
            lines = state.read_bytes().splitlines(keepends=True)
            state.write_bytes(b"".join(lines[:2] + [b"garbage\n"] + lines[3:]))
        before = state.read_bytes() if state.exists() else None
        extra = {"no --resume": [], "changed seed": ["--seed", "8", "--resume"]}
        capsys.readouterr()
        assert main(argv + extra.get(case, ["--resume"])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.endswith("\n") and not out.exists()
        assert (state.read_bytes() if state.exists() else None) == before

    def test_interrupted_then_resumed_events_accumulate(
        self, spec_path, tmp_path, capsys
    ):
        out = tmp_path / "out.jsonl"
        events = tmp_path / "events.jsonl"
        assert run_cli(
            spec_path, out, "--events", str(events), "--stop-after", "4"
        ) == 3
        assert run_cli(
            spec_path, out, "--events", str(events), "--resume"
        ) == 0
        err = capsys.readouterr().err
        assert "resumed: 4 rows skipped, 12 executed" in err
        stream = read_events(events)
        finishes = [e for e in stream if e["kind"] == "campaign_finished"]
        assert [e["interrupted"] for e in finishes] == [True, False]
        resumed = [e for e in stream if e["kind"] == "resume_skipped"]
        assert resumed and resumed[0]["rows"] == 4

    @pytest.mark.parametrize("command", ["campaign", "fuzz"])
    def test_fully_recorded_resume_reports_loudly(
        self, spec_path, tmp_path, capsys, command
    ):
        """``--stop-after`` the remaining count keeps a full checkpoint
        (exit 3); the resume runs nothing, says so and finalizes."""
        out = tmp_path / "out.jsonl"
        argv, total = resumable(command, spec_path, out)
        assert main(argv + ["--stop-after", str(total)]) == 3
        assert checkpoint_path(out).exists() and not out.exists()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        if command == "campaign":
            assert f"resumed: {total} rows skipped, 0 executed" in err
        else:
            assert f"fuzzed {total} candidates (0 executed, 0 duplicate(s), 0 skipped)" in err
            assert f"resumed: {total} candidate(s) recorded, " in err
        assert out.exists() and not checkpoint_path(out).exists()


class TestProgressLine:
    def test_progress_renders_final_line_on_stderr(
        self, spec_path, tmp_path, capsys
    ):
        out = tmp_path / "out.jsonl"
        assert run_cli(spec_path, out, "--progress") == 0
        err = capsys.readouterr().err
        assert "16/16 runs 100%" in err
        assert "runs/s" in err


class TestCampaignRunReport:
    def test_run_report_includes_wall_columns_and_ranking(
        self, spec_path, tmp_path, capsys
    ):
        out = tmp_path / "out.jsonl"
        assert main(
            ["campaign", "run", str(spec_path), "--out", str(out), "--quiet"]
        ) == 0
        captured = capsys.readouterr().out
        assert "wall-ms" in captured and "wall-max" in captured
        assert "slowest cells" in captured


class TestReportEvents:
    def test_report_joins_durations_from_the_sidecar(
        self, spec_path, tmp_path, capsys
    ):
        out = tmp_path / "out.jsonl"
        events = tmp_path / "events.jsonl"
        assert run_cli(spec_path, out, "--events", str(events)) == 0
        capsys.readouterr()

        assert main(["campaign", "report", str(out)]) == 0
        plain = capsys.readouterr().out
        assert "wall-ms" not in plain  # canonical rows carry no durations

        assert main(
            ["campaign", "report", str(out), "--events", str(events)]
        ) == 0
        joined = capsys.readouterr().out
        assert "wall-ms" in joined and "wall-max" in joined
        assert "slowest cells" in joined

    def test_report_rejects_unreadable_events(self, spec_path, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert run_cli(spec_path, out) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "report", str(out),
             "--events", str(tmp_path / "missing.jsonl")]
        ) == 2
        assert "cannot read events" in capsys.readouterr().err


class TestProfileCommand:
    @pytest.mark.parametrize("engine", ["lockstep", "timed"])
    def test_profile_prints_phase_breakdown(self, engine, capsys):
        assert main(
            ["profile", "worst_case", "--algorithm", "pbft", "--n", "4",
             "--b", "1", "--engine", engine, "--repeat", "2"]
        ) == 0
        captured = capsys.readouterr().out
        assert "profile: worst_case on pbft" in captured
        for span in ("engine.run", "kernel.apply", "kernel.send",
                     "scheduler.deliver"):
            assert span in captured
        assert "spans cover" in captured

    def test_profile_span_total_covers_most_of_wall(self, capsys):
        assert main(
            ["profile", "fault-free", "--algorithm", "class-1", "--n", "6",
             "--repeat", "3"]
        ) == 0
        footer = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("spans cover")
        ][0]
        coverage = float(footer.rsplit("(", 1)[1].rstrip("%)"))
        assert coverage >= 90.0

    def test_profile_rejects_unknown_scenario(self, capsys):
        assert main(
            ["profile", "no-such", "--algorithm", "pbft", "--n", "4"]
        ) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_profile_rejects_bad_algorithm(self, capsys):
        assert main(
            ["profile", "fault-free", "--algorithm", "nope", "--n", "4"]
        ) == 2
        assert "cannot build" in capsys.readouterr().err
