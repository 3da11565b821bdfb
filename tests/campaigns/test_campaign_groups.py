"""The cell crosses the pool as a cell: slices down, one row + coordinates up.

Over a grid with one cell of every kind — replicate, rejected (both travel
up as groups), columnar-state and scalar (row by row) — grouping changes
nothing observable: a stop or a tear inside a group resumes to the
single-shot file; events, progress and the report see every row.  (That the
group stream writes the scalar backend's bytes at any ``(workers, chunk)``
is the equivalence table's ``tiers`` and ``workers`` entries, on this grid.)
A negative control shows the scalar differential catches a tier that groups
a cell it has no proof for.
"""

import dataclasses
import hashlib
import json
import os
import pickle

import pytest

from repro.campaigns.aggregate import SummaryFold, format_report
from repro.campaigns.results import (
    TEMPLATE_KEY,
    ResultSink,
    attach_lines,
    checkpoint_path,
    finalize_checkpoint,
    row_to_json,
    validate_resume,
)
from repro.campaigns.runner import (
    _iter_chunks,
    execute_chunk,
    iter_groups,
    run_campaign,
)
from repro.campaigns.spec import CampaignSpec
from repro.cli import main
from repro.engine.batch import MODE_REPLICATE, BatchPlan
from repro.engine.cell import expand_part
from repro.observability import read_events
from repro.scenarios.registry import get_scenario
from tests.conftest import jsonl

REPS = 6
LOSSY_CRASH = dataclasses.replace(
    get_scenario("lossy_channel"), name="lossy_crash", crashes=1
)


def grid(reps=REPS, **overrides):
    """class-1 does not admit (7,1,1): three rejected cells.  class-2 does:
    ``fault-free`` replicates, ``lossy_channel`` is one array program,
    ``lossy_crash`` runs on the per-run oracle."""
    kwargs = dict(
        name="groups",
        algorithms=("class-1", "class-2"),
        models=((7, 1, 1),),
        scenarios=("fault-free", "lossy_channel", LOSSY_CRASH),
        repetitions=reps,
        seed=3,
        max_phases=12,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def stream_to_file(spec, out, skip=None, index=None, **options):
    """What ``campaign run`` does with the group stream, minus the CLI."""
    checkpoint = checkpoint_path(out)
    header = spec.to_mapping() if index is None else None
    with ResultSink(checkpoint, index, header) as sink:
        for row, coords in iter_groups(
            spec, skip_run_ids=skip, lines=True, **options
        ):
            sink.append(row, coords)
    return finalize_checkpoint(checkpoint, out, sink.index).read_bytes()


@pytest.fixture(scope="module")
def scalar_bytes():
    return jsonl(run_campaign(grid(), backend="scalar")).encode()


def test_the_grid_has_a_cell_of_every_kind():
    parts = list(iter_groups(grid()))
    groups = [(row, coords) for row, coords in parts if coords is not None]
    assert [(row["algorithm"], row["status"], row["_backend"], len(coords))
            for row, coords in groups] == [
        ("class-1", "inadmissible", "scalar", REPS),
        ("class-1", "inadmissible", "scalar", REPS),
        ("class-1", "inadmissible", "scalar", REPS),
        ("class-2", "ok", "replicate", REPS),
    ]
    singles = [row for row, coords in parts if coords is None]
    assert len(singles) == 2 * REPS
    assert {row["fault"] for row in singles} == {
        LOSSY_CRASH.describe_fault(),
        get_scenario("lossy_channel").describe_fault(),
    }


def test_flatten_of_a_group_is_the_oracle_rows():
    """``GroupedRows`` is a ``Sequence[Row]``: length, indexing, iteration."""
    runs = [run for run in grid().iter_runs() if run.algorithm == "class-2"][:REPS]
    rows = execute_chunk(runs, False, "batch")
    assert len(rows.parts) == 1 and len(rows) == REPS
    oracle = execute_chunk(runs, False, "scalar")
    assert [row_to_json(row) for row in rows] == [row_to_json(row) for row in oracle]
    assert row_to_json(rows[-1]) == row_to_json(oracle[-1])


def test_a_group_is_encoded_once_and_a_mismatch_encodes_per_row(monkeypatch):
    spec = grid(algorithms=("class-2",), scenarios=("fault-free",))
    calls = []
    real = row_to_json
    monkeypatch.setattr(
        "repro.campaigns.results.row_to_json",
        lambda row: calls.append(row["run_id"]) or real(row),
    )
    ((row, coords),) = execute_chunk(tuple(spec.iter_cells()), lines=True).parts
    assert len(calls) == 3  # the marked row, the first clone, the last
    assert row[TEMPLATE_KEY] % coords[2] == real(list(expand_part(row, coords))[2])
    # A value the one encoding cannot place: no template, lines still right.
    row["status"] = "\x00coordinate"
    attach_lines([(row, coords)])
    assert row[TEMPLATE_KEY] is None
    row["status"] = "50% %d"
    attach_lines([(row, coords)])
    assert row[TEMPLATE_KEY] % coords[0] == real(next(expand_part(row, coords)))


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(grid().to_mapping()))
    return path


def run_cli(spec_path, out, *extra):
    return main(
        ["campaign", "run", str(spec_path), "--out", str(out), "--no-report", *extra]
    )


@pytest.mark.parametrize("stop", [3, 21])  # inside a rejected / a replicate group
@pytest.mark.parametrize("workers", ["1", "2"])
def test_stop_inside_a_group_cuts_at_exactly_n_and_resumes(
    spec_path, tmp_path, capsys, scalar_bytes, stop, workers
):
    out = tmp_path / "out.jsonl"
    assert run_cli(spec_path, out, "--quiet", "--workers", workers,
                   "--stop-after", str(stop)) == 3
    partial = checkpoint_path(out).read_bytes()
    assert partial.count(b"\n") == 1 + stop and partial.endswith(b"\n")  # header + rows
    assert run_cli(spec_path, out, "--quiet", "--workers", workers, "--resume") == 0
    assert f"resumed: {stop} rows skipped" in capsys.readouterr().err
    assert out.read_bytes() == scalar_bytes


def test_a_tear_at_every_byte_of_a_group_resumes_to_the_same_file(tmp_path):
    """A group reaches the OS in one write; whatever prefix of it survives
    is whole lines plus at most one torn line, and resume heals it."""
    spec = grid(algorithms=("class-2",), scenarios=("worst_case", "fault-free"),
                repetitions=4)
    reference = stream_to_file(spec, tmp_path / "reference.jsonl")
    out = tmp_path / "out.jsonl"
    checkpoint = checkpoint_path(out)
    with ResultSink(checkpoint, header=spec.to_mapping()) as sink:
        parts = iter_groups(spec, lines=True)
        sink.append(*next(parts))
        start = checkpoint.stat().st_size
        row, coords = next(parts)
        assert len(coords) == 4
        sink.append(row, coords)
        parts.close()
    whole = checkpoint.read_bytes()
    checkpoint.unlink()
    digests = set()
    for cut in range(start, len(whole) + 1):
        checkpoint.write_bytes(whole[:cut])
        index, intact = validate_resume(spec, checkpoint)
        assert len(index) == 4 + whole[start:cut].count(b"\n")
        os.truncate(checkpoint, intact)
        resumed = stream_to_file(spec, out, skip=frozenset(index), index=index)
        digests.add(hashlib.sha256(resumed).hexdigest())
    assert digests == {hashlib.sha256(reference).hexdigest()}


def test_events_emit_one_row_completed_per_row(spec_path, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    events = tmp_path / "events.jsonl"
    assert run_cli(spec_path, out, "--quiet", "--workers", "2",
                   "--events", str(events)) == 0
    capsys.readouterr()
    stream = read_events(events)
    completed = [event for event in stream if event["kind"] == "row_completed"]
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert sorted(event["run_id"] for event in completed) == list(range(len(rows)))
    for event in completed:
        assert set(event) == {
            "kind", "ts", "run_id", "status", "backend", "duration_ms", "pid",
        }
        assert event["status"] == rows[event["run_id"]]["status"]
        assert isinstance(event["pid"], int)
    finished = stream[-1]
    assert finished["rows"] == len(rows)
    assert finished["backends"] == {
        "columnar-state": REPS, "replicate": REPS, "scalar": 4 * REPS,
    }
    flushed = [event["rows"] for event in stream if event["kind"] == "checkpoint_flushed"]
    assert flushed == list(range(3, len(rows) + 1, 3))  # every tenth of the grid


def test_progress_counts_every_row(spec_path, tmp_path, capsys):
    assert run_cli(spec_path, tmp_path / "a.jsonl", "--quiet", "--progress") == 0
    assert "36/36 runs 100%" in capsys.readouterr().err
    assert run_cli(spec_path, tmp_path / "b.jsonl") == 0  # the default ticker
    ticks = [line for line in capsys.readouterr().err.splitlines()
             if line.endswith("/36 runs")]
    assert ticks == [f"  {done}/36 runs" for done in range(3, 37, 3)]


def test_report_folds_a_group_like_its_rows():
    spec = grid()
    grouped, flat = SummaryFold(), SummaryFold()
    for row, coords in iter_groups(spec, timings=True):
        grouped.add(row, 1 if coords is None else len(coords))
        for clone in expand_part(row, coords):
            flat.add(clone)

    def table(fold):  # wall-clock columns are volatile
        return format_report([
            dataclasses.replace(
                summary, mean_wall_ms=None, max_wall_ms=None, total_wall_ms=0.0
            )
            for summary in fold.summaries()
        ])

    assert table(grouped) == table(flat)
    assert sum(summary.runs for summary in grouped.summaries()) == spec.total_runs


def test_pickled_chunk_size_is_independent_of_repetitions():
    def sent(reps):
        spec = grid(reps, algorithms=("class-2",), scenarios=("fault-free",))
        ((chunk, _once),) = _iter_chunks(spec.iter_cells(), 32, 256)
        returned = execute_chunk(chunk, True, "auto", True)
        assert len(returned) == reps and len(returned.parts) == 1
        return len(pickle.dumps(chunk)), len(pickle.dumps(returned))

    (small, _), (large, returned) = sent(8), sent(200)
    assert abs(large - small) <= 8 and large < 2000
    assert returned / 200 < 100  # one row + 200 coordinates, not 200 rows


def test_negative_control_grouping_without_a_proof_is_caught(monkeypatch):
    """A tier that returns a group for a seed-dependent cell: the scalar
    differential — the check every test above leans on — must see it."""
    spec = grid(algorithms=("class-2",), scenarios=("lossy_channel",))
    oracle = jsonl(run_campaign(spec, backend="scalar"))
    assert jsonl(run_campaign(spec)) == oracle
    monkeypatch.setattr(
        "repro.engine.batch.kernel.plan_for_run",
        lambda run: BatchPlan(MODE_REPLICATE, "test-only: no such proof"),
    )
    forged = run_campaign(spec)
    assert {row["_backend"] for row in forged} == {"replicate"}
    assert jsonl(forged) != oracle
