"""Campaign rows are byte-identical across every fast-path configuration.

The PR-5 optimizations (heap-free timed delivery, batched latency sampling,
scheduler-reported drops, chunked dispatch, worker-side memos) and the batch
backend (replicate / columnar-state / scalar execution tiers, the middle
one on both engines) all promise the same thing: not one byte of any result row changes.  This suite pins
that down end to end on the ``gauntlet`` campaign — every registered
scenario × every algorithm class × both engines — by diffing the canonical
JSONL against a baseline produced with ``REPRO_SLOW_SCHEDULER=1`` (the
legacy event-heap delivery), at workers ∈ {1, 4} and chunk ∈ {1, 8},
including the batch backend with and without numpy and a resume that
switches backends mid-campaign.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.campaigns import BUILTIN_CAMPAIGNS, load_spec, run_campaign
from repro.campaigns.results import write_rows

GAUNTLET = BUILTIN_CAMPAIGNS["gauntlet"]


def canonical(rows):
    """One deterministic string per row list (already run_id-sorted).

    Underscore-prefixed keys are volatile diagnostics (``_elapsed_ms``,
    ``_pid``, ``_backend``) that the result store strips before
    serialization — strip them here too, matching ``row_to_json``.
    """
    return [
        json.dumps(
            {k: v for k, v in row.items() if not k.startswith("_")},
            sort_keys=True,
        )
        for row in rows
    ]


@pytest.fixture(scope="module")
def slow_baseline():
    """The gauntlet under the legacy heap scheduler, inline execution.

    Environment mutation is module-scoped by hand (monkeypatch is
    function-scoped): schedulers read REPRO_SLOW_SCHEDULER at construction,
    which happens per run inside execute_run, so setting it around the
    campaign is enough with workers=1.
    """
    import os

    os.environ["REPRO_SLOW_SCHEDULER"] = "1"
    try:
        rows = run_campaign(GAUNTLET, workers=1)
    finally:
        del os.environ["REPRO_SLOW_SCHEDULER"]
    return canonical(rows)


def test_gauntlet_has_no_error_rows(slow_baseline):
    for line in slow_baseline:
        assert '"status": "error"' not in line


def test_fast_path_identical_inline(slow_baseline):
    assert canonical(run_campaign(GAUNTLET, workers=1)) == slow_baseline


@pytest.mark.parametrize("workers,chunk", [(4, 1), (4, 8)])
def test_fast_path_identical_parallel(slow_baseline, workers, chunk):
    rows = run_campaign(GAUNTLET, workers=workers, chunk=chunk)
    assert canonical(rows) == slow_baseline


def test_slow_scheduler_survives_worker_processes(slow_baseline):
    """Pool workers inherit the escape hatch: slow parallel == slow inline."""
    import os

    os.environ["REPRO_SLOW_SCHEDULER"] = "1"
    try:
        rows = run_campaign(GAUNTLET, workers=4, chunk=8)
    finally:
        del os.environ["REPRO_SLOW_SCHEDULER"]
    assert canonical(rows) == slow_baseline


@pytest.mark.parametrize(
    "workers,chunk", [(1, 1), (1, 8), (4, 1), (4, 8)]
)
def test_batch_backend_identical(slow_baseline, workers, chunk):
    """The batch kernel reproduces the heap oracle at every dispatch shape."""
    rows = run_campaign(
        GAUNTLET, workers=workers, chunk=chunk, backend="batch"
    )
    assert canonical(rows) == slow_baseline


def test_batch_backend_identical_without_numpy(slow_baseline):
    """The pure-python block fallback is byte-identical too."""
    import os

    os.environ["REPRO_NO_NUMPY"] = "1"
    try:
        rows = run_campaign(GAUNTLET, workers=4, chunk=8, backend="batch")
    finally:
        del os.environ["REPRO_NO_NUMPY"]
    assert canonical(rows) == slow_baseline


def test_batch_backend_identical_with_repetitions(slow_baseline):
    """Multi-repetition cells (the replicate tier's raison d'être) agree."""
    spec = dataclasses.replace(GAUNTLET, repetitions=2)
    scalar = run_campaign(spec, workers=1, backend="scalar")
    batch = run_campaign(spec, workers=4, chunk=8, backend="batch")
    assert canonical(batch) == canonical(scalar)


def test_resume_with_backend_switched(slow_baseline):
    """A campaign recorded under one backend completes under another.

    Rows 0..39 play the part of a checkpoint written by a scalar run; the
    batch backend finishes the remainder and the merged file matches the
    single-shot baseline byte for byte.
    """
    from repro.campaigns import iter_campaign

    head = slow_baseline[:40]
    skip = {json.loads(line)["run_id"] for line in head}
    tail = list(
        iter_campaign(GAUNTLET, workers=1, skip_run_ids=skip, backend="batch")
    )
    merged = head + canonical(tail)
    merged.sort(key=lambda line: json.loads(line)["run_id"])
    assert merged == slow_baseline


def test_gauntlet_exercises_columnar_state_tier():
    """The tier coverage the batch identity tests above rely on is real.

    The byte-identity claims are only as strong as the tiers the gauntlet
    actually dispatches through: if planner eligibility ever regressed and
    every seed-dependent cell silently fell to scalar, the suite would
    pass vacuously.  Pin the gauntlet to keep cells on the columnar-state
    tier on **both engines** (and on every other tier — three, not four).
    """
    from repro.engine.batch import (
        MODE_COLUMNAR_STATE,
        MODE_REPLICATE,
        MODE_SCALAR,
        plan_for_run,
    )

    modes = {
        (run.engine, plan_for_run(run).mode) for run in GAUNTLET.iter_runs()
    }
    assert {mode for _engine, mode in modes} == {
        MODE_REPLICATE, MODE_COLUMNAR_STATE, MODE_SCALAR
    }
    assert ("lockstep", MODE_COLUMNAR_STATE) in modes
    assert ("timed", MODE_COLUMNAR_STATE) in modes


def _batch_vs_oracle(runs):
    """``execute_chunk`` at ``--backend batch`` vs ``execute_run``, diffed
    ``row_to_json``-byte-for-byte, on numpy and on the no-numpy demotion."""
    import os

    from repro.campaigns.results import row_to_json
    from repro.campaigns.runner import execute_chunk, execute_run

    oracle = [row_to_json(execute_run(run)) for run in runs]
    accelerated = execute_chunk(runs, False, "batch")
    assert [row_to_json(row) for row in accelerated] == oracle
    os.environ["REPRO_NO_NUMPY"] = "1"
    try:
        fallback = execute_chunk(runs, False, "batch")
    finally:
        del os.environ["REPRO_NO_NUMPY"]
    assert [row_to_json(row) for row in fallback] == oracle
    assert {row["_backend"] for row in fallback} == {"scalar"}
    return oracle, accelerated


@pytest.mark.parametrize("repetitions", [4, 32])
def test_stochastic_grid_lockstep_cells_match_oracle(repetitions):
    """Every lockstep ``flaky_gst`` / ``lossy_channel`` cell of the e2e
    stochastic grid (classes 1–3 × (9,1,1), (21,2,2)): columnar-state
    planned, columnar-state produced, oracle bytes."""
    from repro.engine.batch import MODE_COLUMNAR_STATE, plan_for_run
    from repro.utils.accel import get_numpy

    spec = dataclasses.replace(
        GAUNTLET,
        name="e2e-stochastic",
        scenarios=("flaky_gst", "lossy_channel"),
        models=((9, 1, 1), (21, 2, 2)),
        engines=("lockstep",),
        repetitions=repetitions,
        seed=11,
    )
    runs = tuple(spec.iter_runs())
    assert len(runs) == 12 * repetitions
    assert all(plan_for_run(run).mode == MODE_COLUMNAR_STATE for run in runs)
    oracle, accelerated = _batch_vs_oracle(runs)
    assert all('"status":"ok"' in line for line in oracle)
    if get_numpy() is not None:
        assert {row["_backend"] for row in accelerated} == {"columnar-state"}


@pytest.fixture
def byz_scenarios():
    """Synthetic Byzantine × seed-dependent scenarios, registered per test.

    No builtin scenario combines inbox-free Byzantine strategies with
    seed-dependent delivery, so without these cells the columnar-state
    tier's Byzantine payload overlays would only ever face reliable
    delivery.  Registered/unregistered by hand: the registry is
    process-global and must not leak into other tests (inline workers
    only — a pool worker process would never see this registration).
    """
    from repro.scenarios import CommSpec, ScenarioSpec, register_scenario
    from repro.scenarios.registry import SCENARIO_REGISTRY

    specs = {
        "lossy": ScenarioSpec(
            name="byz_lossy_identity",
            byzantine=("equivocator", "high-ts-liar"),
            comm=CommSpec(kind="lossy", drop_prob=0.3),
            max_phases=15,
        ),
        # Rounds 1–3 are bad (an equivocator's per-destination selection
        # payloads arrive raw under lockstep), rounds ≥ 4 good (the Pcons
        # oracle canonicalizes them and may inject deliveries).
        "equivocator-gst": ScenarioSpec(
            name="byz_equivocator_gst_identity",
            byzantine=("equivocator",),
            comm=CommSpec(
                kind="good-bad", schedule="after", good_from=4,
                bad="drop", drop_prob=0.5,
            ),
            max_phases=15,
        ),
        "high-ts-lossy": ScenarioSpec(
            name="byz_high_ts_lossy_identity",
            byzantine=("high-ts-liar",),
            comm=CommSpec(kind="lossy", drop_prob=0.3),
            max_phases=15,
        ),
    }
    for spec in specs.values():
        register_scenario(spec)
    try:
        yield specs
    finally:
        for spec in specs.values():
            del SCENARIO_REGISTRY[spec.name]


def _forced_cells(scenario, engines):
    from repro.campaigns import CampaignSpec
    from repro.engine.batch import MODE_COLUMNAR_STATE, plan_for_run

    spec = CampaignSpec(
        name="byz-forced",
        algorithms=("class-2", "class-3"),
        models=((11, 2, 1),),
        engines=engines,
        scenarios=(scenario.name,),
        repetitions=8,
        seed=13,
    )
    runs = tuple(spec.iter_runs())
    assert all(
        plan_for_run(run).mode == MODE_COLUMNAR_STATE for run in runs
    )
    return runs


def test_forced_columnar_state_cell_matches_scalar_oracle(byz_scenarios):
    """Byzantine payloads under lossy masks: forced tier vs the oracle.

    Every run of the synthetic cell must plan columnar-state (not merely
    happen to), and the batch rows must match the scalar oracle byte for
    byte — on the numpy array program and on the no-numpy demotion alike.
    """
    runs = _forced_cells(byz_scenarios["lossy"], ("timed", "lockstep"))
    oracle, _rows = _batch_vs_oracle(runs)
    assert all('"status":"ok"' in line for line in oracle)


@pytest.mark.parametrize("name", ["equivocator-gst", "high-ts-lossy"])
def test_forced_byzantine_lockstep_cells_match_scalar_oracle(byz_scenarios, name):
    """The two lockstep-only delivery semantics, against the oracle.

    ``equivocator`` × ``good-bad``/``drop`` with ``good_from = 4``: bad
    selection rounds deliver its per-destination payloads raw, good ones
    pin it to the payload addressed to the lowest-id audience member —
    so ``sent`` / ``delivered`` / ``dropped`` must equal the oracle's
    matrix edge count and rescan count, which the row bytes carry.
    ``high-ts-liar`` × ``lossy``: a broadcast liar under per-edge coins.
    """
    import json as _json

    runs = _forced_cells(byz_scenarios[name], ("lockstep",))
    oracle, _rows = _batch_vs_oracle(runs)
    rows = [_json.loads(line) for line in oracle]
    assert all(row["status"] == "ok" for row in rows)
    assert all(
        row["messages_sent"] >= row["messages_delivered"] > 0 for row in rows
    )
    if name == "equivocator-gst":
        # The cells must actually reach the good (Pcons) rounds.
        assert any(row["rounds"] >= 4 for row in rows)


#: SHA-256 of the result file of each campaign, as ``campaign run --out``
#: writes it.  Every arm the comm-matrix cells diff (default / scalar /
#: batch / heap scheduler) shares the lockstep oracle, so a drift there
#: moves them together and only an absolute pin sees it.
RESULT_PINS = {
    "gauntlet": "efefaaaf2deb3254798e5aaa7cf2b7492fe15a3749d553da133ea0be3f0b950e",
    "comm-matrix.json": "bfbc12929a4eed26cac058e9571c110e64c0786c90375c06062c868581f63057",
}


@pytest.mark.parametrize("name", sorted(RESULT_PINS))
def test_lockstep_oracle_result_files_are_pinned(tmp_path, name):
    spec = (
        BUILTIN_CAMPAIGNS[name]
        if name in BUILTIN_CAMPAIGNS
        else load_spec(Path(__file__).parent.parent / "data" / name)
    )
    out = write_rows(tmp_path / "results.jsonl", run_campaign(spec, workers=1))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RESULT_PINS[name]
