"""Chunked dispatch and worker-side memos of the campaign runner."""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaigns.runner import (
    BATCH_FLOOR,
    CELL_CHUNK_CAP,
    MAX_CHUNK,
    _auto_chunk,
    _iter_cell_groups,
    _iter_chunks,
    execute_chunk,
    execute_run,
    iter_campaign,
)
from repro.campaigns.spec import CampaignSpec
from repro.engine.batch import (
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    MODE_SCALAR,
    plan_for_run,
)
from repro.engine.cell import admit
from repro.scenarios.registry import get_scenario


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
        for chunk in _iter_chunks(spec.iter_cells(), size, cell_cap)
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


def dispatched(spec, **options):
    sizes = []
    rows = list(
        iter_campaign(
            spec,
            workers=2,
            on_event=lambda kind, fields: (
                sizes.append(fields["runs"])
                if kind == "chunk_dispatched"
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
    assert dispatched(spec) == [100] * 4
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
