"""Chunked dispatch and worker-side memos of the campaign runner."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.campaigns.runner import (
    BATCH_FLOOR,
    CELL_CHUNK_CAP,
    MAX_CHUNK,
    _auto_chunk,
    _batchable,
    _iter_cell_groups,
    _iter_chunks,
    execute_chunk,
    execute_run,
    iter_campaign,
    run_campaign,
)
from repro.campaigns.spec import CampaignSpec
from repro.cli import main
from repro.engine.batch import (
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    MODE_SCALAR,
    plan_for_run,
)
from repro.engine.cell import admit
from repro.observability import read_events
from repro.scenarios.registry import get_scenario
from tests.conftest import jsonl


def small_spec(**overrides):
    kwargs = dict(
        name="chunk-test",
        algorithms=("one-third-rule",),
        models=((4, 0, 1), (5, 0, 1)),
        engines=("lockstep", "timed"),
        repetitions=2,
        max_phases=8,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def test_auto_chunk_scales_with_grid():
    assert _auto_chunk(10, 4) == 1  # tiny grid: no batching
    assert _auto_chunk(10_000, 4) == MAX_CHUNK  # huge grid: capped
    assert 1 <= _auto_chunk(500, 4) <= MAX_CHUNK


@pytest.mark.parametrize(
    "backend, repetitions, chunk, expected",
    [
        ("auto", 8, None, True),
        ("auto", BATCH_FLOOR, BATCH_FLOOR, True),
        ("auto", 8, BATCH_FLOOR - 1, False),
        ("auto", 8, 2, False),
        ("auto", BATCH_FLOOR - 1, None, False),
        ("auto", 2, 8, False),
        ("batch", 1, 1, True),
        ("scalar", 8, None, False),
    ],
    ids=[
        "auto-whole-cells", "auto-at-floor", "auto-chunk-below-floor",
        "auto-small-chunk", "auto-reps-below-floor", "auto-big-chunk-few-reps",
        "batch-forces", "scalar-never",
    ],
)
def test_a_grid_can_batch_only_in_groups_of_batch_floor(
    backend, repetitions, chunk, expected
):
    # Under auto a group needs BATCH_FLOOR runs: a cell that large, cut
    # into chunks that large; an explicit small chunk holds no such group.
    assert _batchable(backend, repetitions, chunk) is expected


def test_chunk_validation():
    spec = small_spec()
    with pytest.raises(ValueError, match="chunk"):
        list(iter_campaign(spec, workers=2, chunk=0))


def test_execute_chunk_preserves_run_order():
    spec = small_spec()
    runs = list(spec.iter_runs())[:4]
    rows = execute_chunk(runs)
    assert [row["run_id"] for row in rows] == [run.run_id for run in runs]


def test_chunked_dispatch_respects_skip_and_progress():
    spec = small_spec()
    skip = {0, 3, 5}
    seen = []
    rows = list(
        iter_campaign(
            spec,
            workers=2,
            chunk=2,
            skip_run_ids=skip,
            progress=lambda done, total: seen.append((done, total)),
        )
    )
    assert {row["run_id"] for row in rows} == set(range(spec.total_runs)) - skip
    # Progress counts skipped runs as already completed.
    assert seen[0][0] == len(skip) + 1
    assert seen[-1] == (spec.total_runs, spec.total_runs)


def test_resolve_memo_shares_and_replays():
    first = admit("pbft", 4, 1, 0)
    assert admit("pbft", 4, 1, 0) is first
    with pytest.raises(KeyError):
        admit("no-such-algorithm", 4, 1, 0)
    with pytest.raises(KeyError):  # the memoized rejection replays too
        admit("no-such-algorithm", 4, 1, 0)


# --------------------------------------------------- cell-aligned dispatch


#: Loss plus a crash script: seed-dependent, and the array program has no
#: crash schedule — the one kind of class-2 cell here that plans scalar.
LOSSY_CRASH = dataclasses.replace(
    get_scenario("lossy_channel"), name="lossy_crash", crashes=1
)


def cell_spec(reps, scenarios=("fault-free", "lossy_channel", LOSSY_CRASH)):
    """class-2 at (9,1,1), both engines: per engine one replicate cell
    (``fault-free``), one columnar-state cell (``lossy_channel``) and one
    scalar cell (``lossy_crash``)."""
    return CampaignSpec(
        name="cells",
        algorithms=("class-2",),
        models=((9, 1, 1),),
        engines=("lockstep", "timed"),
        scenarios=scenarios,
        repetitions=reps,
        seed=5,
        max_phases=12,
    )


def chunks_of(spec, size, cell_cap=CELL_CHUNK_CAP):
    """The dispatch chunks, each flattened from cell slices to its runs."""
    return [
        [run for piece in chunk for run in piece]
        for chunk, _once in _iter_chunks(spec.iter_cells(), size, cell_cap)
    ]


def test_cell_spec_covers_all_three_tiers():
    tiers = {}
    for run in cell_spec(4).iter_runs():
        tiers.setdefault(run.scenario.name, set()).add(plan_for_run(run).mode)
    assert tiers == {
        "fault-free": {MODE_REPLICATE},
        "lossy_channel": {MODE_COLUMNAR_STATE},
        "lossy_crash": {MODE_SCALAR},
    }


def test_batchable_cells_travel_whole_and_scalar_cells_chunk_as_before():
    """reps 100 is not a multiple of the auto chunk (32): before, every
    cell left a 4-run fragment and its representative ran four times."""
    spec = cell_spec(100)
    size = _auto_chunk(spec.total_runs, 2)
    assert size == MAX_CHUNK
    chunks = chunks_of(spec, size)
    assert [run.run_id for chunk in chunks for run in chunk] == list(
        range(spec.total_runs)
    )
    for chunk in chunks:
        for group in _iter_cell_groups(chunk):
            if group[0].scenario.name == "lossy_crash":
                assert len(group) <= size
            else:  # never split, so never below the batch floor at an edge
                assert len(group) == 100 >= BATCH_FLOOR
    # A grid of scalar cells alone is cut exactly as it was: every
    # ``size`` runs, cell boundaries ignored.
    scalar_only = cell_spec(100, scenarios=(LOSSY_CRASH,))
    assert [len(chunk) for chunk in chunks_of(scalar_only, size)] == (
        [32] * 6 + [8]
    )
    assert chunks_of(scalar_only, size) == chunks_of(scalar_only, size, None)


def test_cell_above_the_cap_splits():
    """After ``CELL_CHUNK_CAP`` runs of one cell the chunk is cut; the
    10-run tail is below ``size`` and rides with the next cell's piece."""
    spec = cell_spec(CELL_CHUNK_CAP + 10, scenarios=("fault-free",))
    assert [len(chunk) for chunk in chunks_of(spec, 32)] == [
        CELL_CHUNK_CAP, 10 + CELL_CHUNK_CAP, 10,
    ]


def test_rejected_cell_travels_whole():
    """class-1 does not admit (7,1,1): no kernel ever runs, the planner
    says scalar, and the cell still is one chunk."""
    spec = CampaignSpec(
        name="rejected", algorithms=("class-1",), models=((7, 1, 1),),
        scenarios=("fault-free",), repetitions=100,
    )
    run = next(spec.iter_runs())
    assert plan_for_run(run).mode == MODE_SCALAR
    assert [len(chunk) for chunk in chunks_of(spec, 32)] == [100]


def dispatched(spec, where=("pool", "parent"), **options):
    """The runs of every chunk dispatched to ``where``, in order."""
    sizes = []
    rows = list(
        iter_campaign(
            spec,
            workers=2,
            on_event=lambda kind, fields: (
                sizes.append(fields["runs"])
                if kind == "chunk_dispatched" and fields["where"] in where
                else None
            ),
            **options,
        )
    )
    assert len(rows) == spec.total_runs
    return sizes


def test_explicit_chunk_means_exactly_that_many_runs():
    spec = cell_spec(100, scenarios=("fault-free", "lossy_channel"))
    assert dispatched(spec, chunk=7) == [7] * 57 + [1]


def test_pool_dispatches_one_chunk_per_batchable_cell():
    spec = cell_spec(100, scenarios=("fault-free", "lossy_channel"))
    # The two ``fault-free`` cells replicate: one execution each, in the
    # parent; the two ``lossy_channel`` array programs go to the pool.
    assert dispatched(spec, where=("pool",)) == [100] * 2
    assert dispatched(spec, where=("parent",)) == [100] * 2
    # Below the batch floor no cell can batch: nothing is planned in the
    # parent and chunks are plain auto-sized slices.
    small = cell_spec(2)
    assert set(dispatched(small)) == {_auto_chunk(small.total_runs, 2)}
    # The scalar backend never batches either.
    assert max(dispatched(spec, backend="scalar")) == _auto_chunk(400, 2)


def test_plain_iter_campaign_yields_the_historical_dicts():
    """Without the CLI's options a row carries the result columns and the
    batch kernel's ``_backend`` tag — no timings, no pre-serialized line."""
    spec = cell_spec(5)
    oracle = {run.run_id: execute_run(run) for run in spec.iter_runs()}
    for workers in (1, 2):
        for row in iter_campaign(spec, workers=workers):
            extra = set(row) - set(oracle[row["run_id"]])
            assert extra <= {"_backend"}
            row.pop("_backend", None)
            assert row == oracle[row["run_id"]]


# ------------------------------------------------------ where a chunk runs


def test_a_replicate_only_grid_runs_in_the_parent_and_never_forks():
    spec = cell_spec(8, scenarios=("fault-free",))
    own = os.getpid()
    before = set(multiprocessing.active_children())
    rows = []
    for row in iter_campaign(spec, workers=2, timings=True):
        assert set(multiprocessing.active_children()) <= before
        rows.append(row)
    assert len(rows) == spec.total_runs
    assert {row["_pid"] for row in rows} == {own}


def test_a_mixed_grid_sends_only_per_run_work_to_the_pool():
    """class-1 rejects (7,1,1) and class-2 replicates ``fault-free``: those
    cells run in the parent; the ``lossy_channel`` array programs are all
    the pool sees.  The file is the one ``--workers 1`` writes."""
    spec = CampaignSpec(
        name="mixed", algorithms=("class-1", "class-2"), models=((7, 1, 1),),
        engines=("lockstep", "timed"), scenarios=("fault-free", "lossy_channel"),
        repetitions=8, seed=5,
    )
    events = []
    rows = list(iter_campaign(
        spec, workers=2, timings=True,
        on_event=lambda kind, fields: events.append((kind, dict(fields))),
    ))
    pooled = {
        row["run_id"] for row in rows
        if row["algorithm"] == "class-2" and row["fault"].startswith("lossy")
    }
    assert len(pooled) == 16
    assert {row["run_id"] for row in rows if row["_pid"] != os.getpid()} == pooled
    where = [fields["where"] for kind, fields in events if kind == "chunk_dispatched"]
    assert sorted(where) == ["parent"] * 6 + ["pool"] * 2
    rows.sort(key=lambda row: row["run_id"])
    assert jsonl(rows) == jsonl(run_campaign(spec, workers=1))


def test_resume_at_two_workers_runs_partial_replicate_slices_in_the_parent(
    tmp_path, capsys
):
    spec = cell_spec(10, scenarios=("fault-free", "worst_case"))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_mapping()))
    single, out = tmp_path / "single.jsonl", tmp_path / "out.jsonl"
    events = tmp_path / "events.jsonl"

    def run(path, *extra):
        return main(["campaign", "run", str(spec_path), "--out", str(path),
                     "--quiet", "--no-report", *extra])

    assert run(single, "--workers", "1") == 0
    # Half the grid, cut inside a cell: its other 5 runs are a partial slice.
    assert run(out, "--workers", "2", "--stop-after", "15") == 3
    assert run(out, "--workers", "2", "--resume", "--events", str(events)) == 0
    capsys.readouterr()
    assert out.read_bytes() == single.read_bytes()
    chunks = read_events(events, "chunk_dispatched")
    assert {event["where"] for event in chunks} == {"parent"}
    assert [event["runs"] for event in chunks] == [5, 10, 10]
