"""Result store round-trips, aggregation arithmetic, CLI integration."""

import json
import os
import tracemalloc

import pytest

from repro.campaigns import results
from repro.campaigns.aggregate import (
    CellSummary,
    SummaryFold,
    format_report,
    percentile,
    summarize,
)
from repro.campaigns.presets import BUILTIN_CAMPAIGNS
from repro.campaigns.results import (
    LINE_KEY,
    WINDOW,
    LineIndex,
    ResultSink,
    checkpoint_path,
    finalize_checkpoint,
    iter_rows,
    row_to_json,
    validate_resume,
    write_rows,
)
from repro.campaigns.runner import iter_groups
from repro.cli import main
from tests.conftest import HEADER, HEADER_LINE, jsonl, recorded_runs


def make_row(**overrides):
    row = {
        "campaign": "unit", "run_id": 0, "algorithm": "pbft",
        "n": 4, "b": 1, "f": 0, "engine": "timed", "fault": "fault-free",
        "network": "uniform[0.5,2] gst=0 δ=2 Δ=2.5", "rep": 0, "seed": 1,
        "status": "ok", "agreement": True, "validity": True,
        "unanimity": True, "termination": True, "decided": 4, "rounds": 3,
        "phases": None, "time_to_decision": 7.5, "messages_sent": 48,
        "messages_delivered": 48, "messages_dropped": 0, "error": None,
    }
    row.update(overrides)
    return row


class TestStore:
    def test_write_read_round_trip(self, tmp_path):
        rows = [make_row(run_id=i, seed=i) for i in range(5)]
        path = tmp_path / "out" / "results.jsonl"
        write_rows(path, rows)
        assert list(iter_rows(path)) == rows

    def test_canonical_bytes_are_stable(self, tmp_path):
        rows = [make_row(run_id=i) for i in range(3)]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_rows(first, rows)
        write_rows(second, [dict(reversed(list(row.items()))) for row in rows])
        assert first.read_bytes() == second.read_bytes()

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok":1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            list(iter_rows(path))

    def test_sink_streams_through_one_handle(self, tmp_path):
        rows = [make_row(run_id=i) for i in range(6)]
        with ResultSink(tmp_path / "stream" / "sink.jsonl", header=HEADER) as sink:
            for row in rows:
                sink.append(row)
        assert sink.path.read_text() == HEADER_LINE + jsonl(rows)
        assert recorded_runs(sink.path, lambda _: 1)[0] == set(range(6))

    def test_iter_rows_is_lazy_and_matches_read(self, tmp_path):
        rows = [make_row(run_id=i) for i in range(3)]
        path = tmp_path / "lazy.jsonl"
        write_rows(path, rows)
        stream = iter_rows(path)
        assert next(stream) == rows[0]
        assert list(stream) == rows[1:]


class TestSerializeOnce:
    def test_row_to_json_bytes_are_the_historical_ones(self):
        row = make_row(_elapsed_ms=1.5, _pid=7, _backend="replicate")
        row[LINE_KEY] = "stale"
        assert row_to_json(row) == json.dumps(
            make_row(), sort_keys=True, separators=(",", ":")
        )
        assert row_to_json({"": 1, "_": 2, "a_": 3}) == '{"":1,"a_":3}'

    def test_worker_line_equals_parent_serialization(self, tmp_path, capsys):
        """Every gauntlet row at --workers 2: the line the worker attached
        is what ``row_to_json`` makes of the row, and the key carrying it
        never reaches the file."""
        gauntlet = BUILTIN_CAMPAIGNS["gauntlet"]
        parts = list(
            iter_groups(gauntlet, workers=2, timings=True, lines=True)
        )
        # One repetition a cell: below the batch floor, so no groups.
        assert {coords for _row, coords in parts} == {None}
        rows = [row for row, _coords in parts]
        assert len(rows) == gauntlet.total_runs
        for row in rows:
            assert row[LINE_KEY] == row_to_json(row)
        out = tmp_path / "gauntlet.jsonl"
        assert main(["campaign", "run", "gauntlet", "--workers", "2",
                     "--quiet", "--no-report", "--out", str(out)]) == 0
        capsys.readouterr()
        rows.sort(key=lambda row: row["run_id"])
        assert out.read_text() == jsonl(rows)
        assert LINE_KEY not in out.read_text()

    def test_parse_dump_budget(self, tmp_path, capsys, monkeypatch):
        """Single shot: one dump per row, no parse.  Resume: one parse per
        group head among the recorded lines (a line that is not the line
        before it but for ``rep``, ``run_id`` and ``seed``) and one dump to
        prove it canonical, one dump per executed row, nothing else."""
        calls = {"dump": 0, "loads": 0, "dumps": 0}
        real_loads = json.loads

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            results, "canonical", counting("dump", results.canonical)
        )
        monkeypatch.setattr(json, "loads", counting("loads", json.loads))
        monkeypatch.setattr(json, "dumps", counting("dumps", json.dumps))
        total = BUILTIN_CAMPAIGNS["grid-demo"].total_runs
        run = ["campaign", "run", "grid-demo", "--quiet"]

        def table(stdout):
            """The report minus its wall-clock columns and ranking."""
            return [
                "|".join(line.split("|")[:18]).rstrip(" -+")
                for line in stdout.split("slowest cells")[0].splitlines()
            ]

        single = tmp_path / "single.jsonl"
        assert main(run + ["--out", str(single)]) == 0
        assert calls == {"dump": total, "loads": 0, "dumps": 0}
        single_table = table(capsys.readouterr().out)

        calls.update(dump=0)
        out = tmp_path / "resumed.jsonl"
        assert main(run + ["--out", str(out), "--stop-after", "40"]) == 3
        assert calls == {"dump": 40, "loads": 0, "dumps": 0}
        shapes = [
            {k: v for k, v in real_loads(line).items()
             if k not in ("rep", "run_id", "seed")}
            for line in checkpoint_path(out).read_bytes().splitlines()[1:]
        ]
        heads = sum(
            1 for before, line in zip([None] + shapes, shapes)
            if line != before
        )
        assert len(shapes) == 40 and heads < 40  # groups share a parse
        calls.update(dump=0)
        assert main(run + ["--out", str(out), "--resume"]) == 0
        # The header is one more parse.
        assert calls == {"dump": total - 40 + heads, "loads": heads + 1, "dumps": 0}
        assert out.read_bytes() == single.read_bytes()
        # The recorded rows were folded by the validation scan: the
        # resumed report covers the whole grid without a second read.
        assert table(capsys.readouterr().out) == single_table


class TestIndexMerge:
    def rows(self):
        return [make_row(run_id=i, seed=10**i) for i in (3, 0, 2, 1)]

    def checkpoint(self, tmp_path, rows):
        with ResultSink(tmp_path / "out.jsonl.partial", header=HEADER) as sink:
            for row in rows:
                sink.append(row)
        return sink.path, sink.index

    def test_sink_index_locates_every_line(self, tmp_path):
        rows = self.rows()
        path, index = self.checkpoint(tmp_path, rows)
        data = path.read_bytes()
        assert sorted(index) == [0, 1, 2, 3]
        for row in rows:
            offset, length = index[row["run_id"]]
            assert data[offset:offset + length].decode() == (
                row_to_json(row) + "\n"
            )

    def test_one_flush_per_appended_row(self, tmp_path):
        with ResultSink(tmp_path / "flush.partial") as sink:
            flushes = []
            real = sink._handle

            class Spy:
                def write(self, data):
                    return real.write(data)

                def flush(self):
                    # Durable as soon as flushed: the row is on disk now.
                    flushes.append(sink.path.stat().st_size)
                    return real.flush()

            sink._handle = Spy()
            for row in self.rows():
                sink.append(row)
            sink._handle = real
        assert len(flushes) == 4
        assert flushes == sorted(set(flushes))  # each flush found new bytes

    def test_attached_line_is_written_verbatim(self, tmp_path):
        row = make_row(run_id=5)
        row[LINE_KEY] = '{"run_id":5,"verbatim":true}'
        path, index = self.checkpoint(tmp_path, [row])
        assert path.read_text() == HEADER_LINE + '{"run_id":5,"verbatim":true}\n'
        assert index == {5: (len(HEADER_LINE), len(path.read_bytes()) - len(HEADER_LINE))}

    def test_merge_orders_by_run_id_without_parsing(
        self, tmp_path, monkeypatch
    ):
        rows = self.rows()
        path, index = self.checkpoint(tmp_path, rows)
        monkeypatch.setattr(json, "loads", None)  # any parse would raise
        out = tmp_path / "out.jsonl"
        assert finalize_checkpoint(path, out, index) == out
        monkeypatch.undo()
        assert out.read_text() == jsonl(
            sorted(rows, key=lambda row: row["run_id"])
        )
        assert not path.exists()
        assert not out.with_name("out.jsonl.tmp").exists()

    def test_duplicate_run_id_keeps_first_occurrence(self, tmp_path):
        rows = [
            make_row(run_id=2, error="late"),
            make_row(run_id=0, error="first"),
            make_row(run_id=2, error="duplicate"),
        ]
        path, index = self.checkpoint(tmp_path, rows)
        copy = tmp_path / "copy.partial"
        copy.write_bytes(path.read_bytes())
        finalize_checkpoint(path, tmp_path / "indexed.jsonl", index)
        finalize_checkpoint(copy, tmp_path / "scanned.jsonl")  # no index
        for name in ("indexed.jsonl", "scanned.jsonl"):
            merged = list(iter_rows(tmp_path / name))
            assert [row["error"] for row in merged] == ["first", "late"]

    def test_without_an_index_the_scan_rebuilds_it(self, tmp_path):
        rows = self.rows()
        path, index = self.checkpoint(tmp_path, rows)
        # Blank lines are skipped by the scan, as they always were.
        path.write_bytes(b"\n" + path.read_bytes().replace(b"\n", b"\n\n"))
        finalize_checkpoint(path, tmp_path / "scanned.jsonl")
        assert (tmp_path / "scanned.jsonl").read_text() == jsonl(
            sorted(rows, key=lambda row: row["run_id"])
        )
        assert not path.exists()

    def test_without_an_index_a_checkpoint_without_header_is_refused(self, tmp_path):
        """A file written before checkpoints had headers: its first line is
        a row, which skipping as the header would lose."""
        path, out = tmp_path / "old.partial", tmp_path / "out.jsonl"
        path.write_text(jsonl(self.rows()))
        with pytest.raises(ValueError, match="does not start with a header line"):
            finalize_checkpoint(path, out)
        assert path.read_text() == jsonl(self.rows()) and not out.exists()

    def test_torn_tail_is_refused_by_finalize_and_healed_by_resume(
        self, tmp_path
    ):
        rows = self.rows()
        path, _ = self.checkpoint(tmp_path, rows)
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"run_id":9,"trunc')
        with pytest.raises(ValueError, match="torn"):
            finalize_checkpoint(path, tmp_path / "out.jsonl")
        assert path.exists() and not (tmp_path / "out.jsonl").exists()
        assert recorded_runs(path, lambda i: 10**i) == (
            {0, 1, 2, 3}, intact
        )

    @pytest.mark.parametrize(
        "damage",
        ["offset", "length", "past-eof", "two-lines", "other-run", "negative"],
    )
    def test_index_disagreeing_with_the_bytes_is_refused(
        self, tmp_path, damage
    ):
        rows = [make_row(run_id=i) for i in range(3)]  # equal-length lines
        path, index = self.checkpoint(tmp_path, rows)
        size = path.stat().st_size
        offset, length = index[1]
        index[1] = {
            "offset": (offset + 1, length),  # not at a line start
            "length": (offset, length - 1),  # slice does not end in \n
            "past-eof": (offset, size),  # runs past the end of the file
            "two-lines": (offset, 2 * length),  # swallows the next line
            "other-run": index[2],  # a whole line, but run 2's
            "negative": (-length, length),
        }[damage]
        before = path.read_bytes()
        out = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="index entry for run 1"):
            finalize_checkpoint(path, out, index)
        assert path.read_bytes() == before  # checkpoint left in place
        assert not out.exists()
        assert not out.with_name("out.jsonl.tmp").exists()

    def test_sink_continues_the_resume_index(self, tmp_path):
        rows = self.rows()
        path, _ = self.checkpoint(tmp_path, rows[:2])
        with open(path, "ab") as handle:
            handle.write(b'{"run_id":2,"torn')
        spec = type("Spec", (), {"to_mapping": lambda _: HEADER, "total_runs": 4})()
        seeds = {row["run_id"]: row["seed"] for row in rows}
        spec.run_at = lambda run_id: type("Run", (), {"seed": seeds[run_id]})()
        index, intact = validate_resume(spec, path)
        assert sorted(index) == [0, 3]
        os.truncate(path, intact)
        with ResultSink(path, index) as sink:
            for row in rows[2:]:
                sink.append(row)
        assert sink.index is index and sorted(index) == [0, 1, 2, 3]
        finalize_checkpoint(path, tmp_path / "out.jsonl", index)
        assert (tmp_path / "out.jsonl").read_text() == jsonl(
            sorted(rows, key=lambda row: row["run_id"])
        )


class TestLineIndex:
    def test_mapping_semantics(self):
        index = LineIndex(8)
        assert index.record(5, 40, 9) and index.record(1, 0, 12)
        assert not index.record(5, 90, 3)  # the first line wins
        index[3] = (12, 28)
        assert list(index) == [1, 3, 5]  # ascending, not insertion order
        assert index == {5: (40, 9), 1: (0, 12), 3: (12, 28)}
        assert {1: (0, 12), 3: (12, 28), 5: (40, 9)} == index
        assert index != {1: (0, 12), 3: (12, 28)} and len(index) == 3
        index[3] = (60, 4)  # assignment replaces, as a dict's does
        del index[1]
        assert dict(index) == {3: (60, 4), 5: (40, 9)} and len(index) == 2
        assert 1 not in index and "1" not in index and -3 not in index
        with pytest.raises(KeyError):
            del index[1]
        with pytest.raises(KeyError):
            index[7]
        index[7] = (-13, 13)  # stored as given: finalize refuses it
        assert index[7] == (-13, 13)

    def test_a_consecutive_group_keeps_earlier_lines(self):
        index = LineIndex(10)
        index.record_lines([4, 5, 6], 100, [10, 20, 30])
        assert index == {4: (100, 10), 5: (110, 20), 6: (130, 30)}
        index.record_lines([6, 7], 500, [5, 5])  # 6 is recorded already
        assert index[6] == (130, 30) and index[7] == (505, 5)
        index.record_lines([9, 8], 600, [1, 2])  # not consecutive
        assert list(index) == [4, 5, 6, 7, 8, 9] and index[8] == (601, 2)

    def test_a_run_outside_the_grid_raises_before_growing(self):
        index = LineIndex(4)
        tracemalloc.start()
        for run_id in (4, -1, 10**20):
            with pytest.raises(ValueError, match="outside"):
                index[run_id] = (0, 5)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4096 and not index

    def test_finalize_without_index_refuses_an_implausible_run(
        self, tmp_path
    ):
        path = tmp_path / "out.jsonl.partial"
        path.write_text(HEADER_LINE + jsonl([{"run_id": 0}, {"run_id": 10**20}]))
        tracemalloc.start()
        with pytest.raises(ValueError, match=f"records run {10**20} but"):
            finalize_checkpoint(path, tmp_path / "out.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < WINDOW and path.exists()


def test_finalize_memory_does_not_grow_with_the_file(tmp_path):
    """Lines in completion order (blocks of 97 runs, last block first);
    finalize's traced peak is the same window at 5k and 50k lines."""
    peaks = []
    for lines in (5_000, 50_000):
        path = tmp_path / f"{lines}.partial"
        order = [
            run_id for block in reversed(range(0, lines, 97))
            for run_id in range(block, min(block + 97, lines))
        ]
        text = "".join(
            '{"pad":"%s","run_id":%d}\n' % ("x" * (run_id % 150), run_id)
            for run_id in order
        ).encode()
        path.write_bytes(text)
        index, offset = LineIndex(lines), 0
        for line in text.splitlines(keepends=True):
            index.record(json.loads(line)["run_id"], offset, len(line))
            offset += len(line)
        expected = b"".join(sorted(
            text.splitlines(keepends=True),
            key=lambda line: json.loads(line)["run_id"],
        ))
        tracemalloc.start()
        out = finalize_checkpoint(path, tmp_path / f"{lines}.jsonl", index)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert out.read_bytes() == expected
    assert len(text) > 4 * WINDOW
    assert abs(peaks[1] - peaks[0]) < WINDOW, peaks


class TestAggregate:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 2.5
        assert percentile([], 0.5) is None
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_summarize_groups_and_stats(self):
        rows = [
            make_row(run_id=0, time_to_decision=5.0, messages_sent=40),
            make_row(run_id=1, time_to_decision=10.0, messages_sent=60),
            make_row(run_id=2, algorithm="mqb", status="error",
                     agreement=None, time_to_decision=None, error="boom"),
        ]
        summaries = summarize(rows)
        assert len(summaries) == 2
        cells = {summary.key[0]: summary for summary in summaries}
        pbft = cells["pbft"]
        assert (pbft.runs, pbft.ok, pbft.errors) == (2, 2, 0)
        assert pbft.mean_latency == 7.5
        assert pbft.p50_latency == 7.5
        assert pbft.mean_messages == 50.0
        mqb = cells["mqb"]
        assert (mqb.runs, mqb.ok, mqb.errors) == (1, 0, 1)
        assert mqb.mean_latency is None

    def test_violations_counted(self):
        rows = [
            make_row(run_id=0, agreement=False),
            make_row(run_id=1, termination=False),
            make_row(run_id=2, validity=False),
            make_row(run_id=3, unanimity=False),
        ]
        (summary,) = summarize(rows)
        assert summary.agreement_violations == 1
        assert summary.validity_violations == 1
        assert summary.unanimity_violations == 1
        assert summary.safety_violations == 3
        assert summary.termination_failures == 1

    def test_format_report_renders(self):
        report = format_report(summarize([make_row()]))
        assert "ttd-p99" in report and "pbft" in report

    def test_inadmissible_and_inapplicable_are_distinct(self):
        """A resilience-frontier rejection and an unhostable scenario are
        different signals — the report must not fold them together."""
        rows = [
            make_row(run_id=0),
            make_row(run_id=1, status="inadmissible", agreement=None),
            make_row(run_id=2, status="inadmissible", agreement=None),
            make_row(run_id=3, status="inapplicable", agreement=None),
        ]
        (summary,) = summarize(rows)
        assert summary.inadmissible == 2
        assert summary.inapplicable == 1
        header = format_report([summary]).splitlines()[0]
        assert "inadm" in header and "inappl" in header

    def test_summarize_accepts_a_generator(self):
        rows = [make_row(run_id=i, time_to_decision=float(i)) for i in range(4)]
        assert summarize(iter(rows)) == summarize(rows)

    def test_summary_fold_is_incremental(self):
        rows = [
            make_row(run_id=0, time_to_decision=5.0),
            make_row(run_id=1, status="error", agreement=None,
                     time_to_decision=None, error="boom"),
            make_row(run_id=2, time_to_decision=10.0),
        ]
        fold = SummaryFold()
        for row in rows:
            fold.add(row)
        assert fold.summaries() == summarize(rows)
        # Reading summaries mid-stream must not corrupt the fold.
        partial_fold = SummaryFold()
        partial_fold.add(rows[0])
        partial_fold.summaries()
        partial_fold.add(rows[1])
        partial_fold.add(rows[2])
        assert partial_fold.summaries() == summarize(rows)

    def test_custom_group_keys(self):
        rows = [make_row(run_id=0), make_row(run_id=1, engine="lockstep")]
        summaries = summarize(rows, ("engine",))
        assert [summary.key for summary in summaries] == [
            ("lockstep",), ("timed",),
        ]
        assert isinstance(summaries[0], CellSummary)


class TestCli:
    def spec_file(self, tmp_path):
        spec = {
            "name": "cli-unit",
            "algorithms": ["pbft"],
            "models": [[4, 1, 0]],
            "scenarios": [{}, {"byzantine": ["equivocator"]}],
            "repetitions": 2,
            "seed": 5,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_campaign_run_and_report(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        out = tmp_path / "results.jsonl"
        code = main(
            ["campaign", "run", str(spec_path), "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert len(list(iter_rows(out))) == 4
        capsys.readouterr()

        assert main(["campaign", "report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "pbft" in report and "safety-viol" in report

    def test_campaign_run_workers_deterministic(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        one = tmp_path / "w1.jsonl"
        four = tmp_path / "w4.jsonl"
        assert main(["campaign", "run", str(spec_path), "--out", str(one),
                     "--quiet", "--no-report"]) == 0
        assert main(["campaign", "run", str(spec_path), "--out", str(four),
                     "--quiet", "--no-report", "--workers", "4"]) == 0
        capsys.readouterr()
        assert one.read_bytes() == four.read_bytes()

    def test_campaign_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_CAMPAIGNS:
            assert name in out

    def test_campaign_run_builtin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "run", "fig3-flv-class3", "--quiet"]) == 0
        assert (tmp_path / "fig3-flv-class3.results.jsonl").exists()
        capsys.readouterr()

    def test_campaign_run_unknown_spec(self, tmp_path, capsys):
        assert main(["campaign", "run", str(tmp_path / "nope.json")]) == 2
        assert "no such campaign" in capsys.readouterr().err

    def unwritable_targets(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        return {
            "no-such-filesystem-entry": "/proc/nope/x.jsonl",
            "parent-is-a-file": str(blocker / "x.jsonl"),
            "is-a-directory": str(tmp_path),
        }

    @pytest.mark.parametrize(
        "shape",
        ["no-such-filesystem-entry", "parent-is-a-file", "is-a-directory"],
    )
    @pytest.mark.parametrize("option", ["--out", "--events"])
    def test_unwritable_target_is_one_line_and_exit_2(
        self, tmp_path, capsys, shape, option
    ):
        """Probed before anything runs: no traceback, no checkpoint."""
        target = self.unwritable_targets(tmp_path)[shape]
        good = tmp_path / "good" / "results.jsonl"
        argv = ["campaign", "run", "gauntlet", "--workers", "2", "--quiet"]
        if option == "--out":
            argv += ["--out", target]
        else:
            argv += ["--out", str(good), "--events", target]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot write {target}: ")
        assert not good.exists() and not checkpoint_path(good).exists()
        assert not checkpoint_path(target).exists()

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="root writes to read-only directories"
    )
    def test_read_only_directory_is_refused(self, tmp_path, capsys):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o555)
        try:
            out = locked / "results.jsonl"
            assert main(["campaign", "run", "gauntlet", "--quiet",
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"cannot write {out}: ")
            assert list(locked.iterdir()) == []
        finally:
            locked.chmod(0o755)

    def test_writability_probe_leaves_existing_files_alone(
        self, tmp_path, capsys
    ):
        """A previous result file is probed in append mode, not clobbered,
        when the run then stops short of finalizing."""
        out = tmp_path / "results.jsonl"
        out.write_text("previous results\n")
        assert main(["campaign", "run", "gauntlet", "--quiet", "--no-report",
                     "--out", str(out), "--stop-after", "3"]) == 3
        capsys.readouterr()
        assert out.read_text() == "previous results\n"

    def test_campaign_report_missing_file(self, tmp_path, capsys):
        assert main(["campaign", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("good_rows,line", [(0, "[1, 2]"), (1, '"x"')])
    def test_campaign_report_non_object_line(self, tmp_path, capsys, good_rows, line):
        """Valid JSON that is not an object used to end in a traceback."""
        out = tmp_path / "rows.jsonl"
        write_rows(out, [make_row()] * good_rows)
        with open(out, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        assert main(["campaign", "report", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"cannot read {out}: {out}:{good_rows + 1}: not a JSON object\n"
        )

    def test_campaign_report_unknown_group_key(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        write_rows(out, [make_row()])
        code = main(["campaign", "report", str(out), "--group-by", "engnie"])
        assert code == 2
        assert "unknown --group-by field(s) engnie" in capsys.readouterr().err

    @pytest.mark.parametrize("group_by", [",", " , ,"])
    def test_campaign_report_empty_group_by(self, tmp_path, capsys, group_by):
        """``--group-by ,`` used to report one grand-total row and exit 0."""
        out = tmp_path / "rows.jsonl"
        write_rows(out, [make_row()])
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "report", str(out), "--group-by", group_by])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --group-by: needs at least one field" in err

    @pytest.mark.parametrize("group_by", ["n,n", "engine, n,engine"])
    def test_campaign_report_repeated_group_by(self, tmp_path, capsys, group_by):
        """``--group-by n,n`` used to print the ``n`` column twice."""
        out = tmp_path / "rows.jsonl"
        write_rows(out, [make_row()])
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "report", str(out), "--group-by", group_by])
        assert exit_info.value.code == 2
        repeated = group_by.split(",")[-1]
        assert f"argument --group-by: repeats {repeated}\n" in capsys.readouterr().err

    def test_campaign_run_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "algorithms": ["pbft"], "oops": 1}')
        assert main(["campaign", "run", str(path)]) == 2
        assert "cannot load campaign spec" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "plan"])
    @pytest.mark.parametrize(
        "key,entry,message",
        [
            ("faults", {"byzantine": "equivocator"},
             "'faults' was removed: write scenarios = "),
            ("networks", {"gst": 10.0},
             "'networks' was removed: write scenarios = "),
            # The retired fault-script spelling inside the new axis: a bare
            # string must not load as one strategy per letter.
            ("scenarios", {"byzantine": "equivocator"},
             "byzantine must be a list of strategy names"),
        ],
        ids=["faults", "networks", "bare-string-byzantine"],
    )
    def test_retired_spellings_exit_2_with_one_line(
        self, tmp_path, capsys, command, key, entry, message
    ):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "name": "old", "algorithms": ["pbft"], "models": [[4, 1, 0]],
            key: [entry],
        }))
        assert main(["campaign", command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"cannot load campaign spec {path}: ")
        assert message in line
        assert not list(tmp_path.glob("*.partial"))

    @pytest.mark.parametrize("command", ["run", "plan"])
    @pytest.mark.parametrize(
        "comm,message",
        [
            ({"schedule": "windows", "windows": [[5, 2]]}, "windows must be"),
            ({"schedule": "alternating", "good_len": 0, "bad_len": 2},
             "good_len"),
        ],
        ids=["reversed-window", "zero-good-len"],
    )
    def test_ill_formed_comm_schedule_exits_2_with_one_line(
        self, tmp_path, capsys, command, comm, message
    ):
        """Used to load, then fail per run inside ``compile_scenario``: a
        grid of ``error`` rows from ``run`` (exit 1), a clean plan from
        ``plan`` (exit 0)."""
        path = tmp_path / "ill.json"
        path.write_text(json.dumps({
            "name": "ill", "algorithms": ["class-2"], "models": [[9, 1, 1]],
            "scenarios": [{"name": "s", "comm": {"kind": "good-bad", **comm}}],
        }))
        out = tmp_path / "ill.results.jsonl"
        argv = ["campaign", command, str(path)]
        if command == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"cannot load campaign spec {path}: ")
        assert message in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ill.json"]

    def test_seed_override_changes_output(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        base = tmp_path / "base.jsonl"
        moved = tmp_path / "moved.jsonl"
        main(["campaign", "run", str(spec_path), "--out", str(base),
              "--quiet", "--no-report"])
        main(["campaign", "run", str(spec_path), "--out", str(moved),
              "--quiet", "--no-report", "--seed", "6"])
        capsys.readouterr()
        seeds = lambda path: [row["seed"] for row in iter_rows(path)]  # noqa: E731
        assert seeds(base) != seeds(moved)


def test_builtin_campaigns_expand():
    for name, spec in BUILTIN_CAMPAIGNS.items():
        runs = list(spec.iter_runs())
        assert len(runs) == spec.total_runs, name
        assert spec.name == name


def test_grid_demo_meets_acceptance_size():
    assert BUILTIN_CAMPAIGNS["grid-demo"].total_runs >= 100
