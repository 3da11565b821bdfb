"""Event sidecar round-trips: schema, duration join-back.  Torn tails are
``tests/utils/test_jsonl.py``'s, shared with the other durable files."""

import json

import pytest

from repro.observability import EventLog, load_row_durations, read_events
from repro.observability.events import iter_events


@pytest.fixture()
def log_path(tmp_path):
    return tmp_path / "events.jsonl"


class TestEventLogRoundTrip:
    def test_every_event_carries_ts_and_kind(self, log_path):
        with EventLog(log_path) as log:
            log.emit("campaign_started", campaign="demo", total_runs=4)
            log.emit("row_completed", run_id=0, status="ok",
                     duration_ms=1.25, pid=123)
            log.emit("campaign_finished", rows=4, errors=0,
                     elapsed_s=0.5, interrupted=False)
        events = read_events(log_path)
        assert [event["kind"] for event in events] == [
            "campaign_started", "row_completed", "campaign_finished",
        ]
        for event in events:
            assert isinstance(event["ts"], float)
        assert events[1]["run_id"] == 0
        assert events[1]["pid"] == 123

    def test_kind_filter(self, log_path):
        with EventLog(log_path) as log:
            for run_id in range(3):
                log.emit("row_completed", run_id=run_id, status="ok",
                         duration_ms=1.0, pid=1)
            log.emit("worker_heartbeat", pid=1, rows=3, rows_per_s=10.0)
        assert len(read_events(log_path, kind="row_completed")) == 3
        assert len(read_events(log_path, kind="worker_heartbeat")) == 1

    def test_lines_are_compact_single_line_json(self, log_path):
        with EventLog(log_path) as log:
            log.emit("chunk_dispatched", runs=8)
        (line,) = log_path.read_text().splitlines()
        event = json.loads(line)
        assert event["kind"] == "chunk_dispatched"
        assert ": " not in line  # compact separators

    def test_append_mode_extends_existing_file(self, log_path):
        with EventLog(log_path) as log:
            log.emit("campaign_started", campaign="a")
        with EventLog(log_path) as log:
            log.emit("campaign_started", campaign="b")
        assert len(read_events(log_path)) == 2


class TestCorruptFiles:
    def test_event_without_kind_raises(self, log_path):
        log_path.write_text('{"ts": 1.0}\n')
        with pytest.raises(ValueError, match="without a kind"):
            list(iter_events(log_path))


class TestLoadRowDurations:
    def test_joins_run_id_to_duration(self, log_path):
        with EventLog(log_path) as log:
            log.emit("campaign_started", campaign="demo")
            log.emit("row_completed", run_id=0, status="ok",
                     duration_ms=1.5, pid=1)
            log.emit("row_completed", run_id=1, status="error",
                     duration_ms=2.5, pid=1)
        assert load_row_durations(log_path) == {0: 1.5, 1: 2.5}

    def test_reexecuted_run_keeps_last_occurrence(self, log_path):
        with EventLog(log_path) as log:
            log.emit("row_completed", run_id=0, status="ok",
                     duration_ms=9.0, pid=1)
            log.emit("row_completed", run_id=0, status="ok",
                     duration_ms=1.0, pid=2)
        assert load_row_durations(log_path) == {0: 1.0}

    def test_rows_without_durations_are_skipped(self, log_path):
        with EventLog(log_path) as log:
            log.emit("row_completed", run_id=0, status="ok",
                     duration_ms=None, pid=1)
            log.emit("row_completed", run_id="bad", status="ok",
                     duration_ms=1.0, pid=1)
        assert load_row_durations(log_path) == {}
