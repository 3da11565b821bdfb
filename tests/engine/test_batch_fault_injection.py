"""Fault-inject the batch tiers: a tier that *raises* must demote cleanly.

The planned tiers (replicate / columnar-state) demote by raising
``Demote`` with a reason when they cannot hold the oracle-identity
contract.  This suite forces the uglier failure mode — an arbitrary
exception escaping tier production, at build time or from inside either
engine's mask producer — and pins the demotion path: ``run_batch`` never
raises, every row re-executes through the per-run scalar oracle
byte-identically, and the ``batch.fallback_scalar`` /
``batch.demoted[reason]`` telemetry counters account for the whole cell.
"""

from __future__ import annotations

import json

import pytest

from repro.campaigns import CampaignSpec
from repro.campaigns.runner import execute_chunk
from repro.engine.batch import (
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    plan_for_run,
    run_batch,
)
from repro.engine.batch.columnar_state import CellProgram, Demote
from repro.observability import Telemetry
from repro.scenarios import CommSpec, ScenarioSpec, register_scenario
from repro.scenarios.registry import SCENARIO_REGISTRY
from repro.utils.accel import get_numpy


def canonical(rows):
    return [
        json.dumps(
            {k: v for k, v in row.items() if not k.startswith("_")},
            sort_keys=True,
        )
        for row in rows
    ]


@pytest.fixture()
def byz_lossy_scenario():
    spec = ScenarioSpec(
        name="byz_lossy_fault_injection",
        byzantine=("equivocator", "high-ts-liar"),
        comm=CommSpec(kind="lossy", drop_prob=0.3),
        max_phases=15,
    )
    register_scenario(spec)
    try:
        yield spec
    finally:
        del SCENARIO_REGISTRY[spec.name]


@pytest.fixture(params=["timed", "lockstep"])
def columnar_state_runs(request, byz_lossy_scenario):
    """One campaign cell every run of which plans the columnar-state tier."""
    spec = CampaignSpec(
        name="byz-lossy-fault-injection",
        algorithms=("class-3",),
        models=((11, 2, 1),),
        engines=(request.param,),
        scenarios=(byz_lossy_scenario.name,),
        repetitions=6,
        seed=13,
    )
    runs = tuple(spec.iter_runs())
    assert all(plan_for_run(run).mode == MODE_COLUMNAR_STATE for run in runs)
    return runs


def test_columnar_state_exception_demotes_to_scalar(
    monkeypatch, columnar_state_runs
):
    """A columnar-state build that raises re-executes the cell scalar."""
    runs = columnar_state_runs

    def exploding(_runs):
        raise RuntimeError("injected: columnar-state template broke")

    monkeypatch.setattr(
        "repro.engine.batch.kernel.columnar_state_rows", exploding
    )
    oracle = canonical(execute_chunk(runs, False, "scalar"))
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert canonical(rows) == oracle
    assert all(row["_backend"] == "scalar" for row in rows)
    assert telemetry.counters["batch.fallback_scalar"] == len(runs)
    assert telemetry.counters["batch.demoted[tier raised RuntimeError]"] == len(runs)
    assert "batch.columnar_state_rows" not in telemetry.counters


def test_exploding_mask_producer_demotes_to_scalar(
    monkeypatch, columnar_state_runs
):
    """The array program itself blowing up mid-run — inside the engine's
    mask producer, templates already built — demotes with identical rows."""
    runs = columnar_state_runs
    oracle = canonical(execute_chunk(runs, False, "scalar"))
    if get_numpy() is not None:  # the program really runs: rows match first
        assert canonical(run_batch(runs)) == oracle

    def exploding(self, rt, streams, live):
        if rt.number < 2:
            return original(self, rt, streams, live)
        raise FloatingPointError("injected: mask producer broke in round 2")

    original = CellProgram._deliver
    monkeypatch.setattr(CellProgram, "_deliver", exploding)
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert canonical(rows) == oracle
    assert all(row["_backend"] == "scalar" for row in rows)
    assert telemetry.counters["batch.fallback_scalar"] == len(runs)
    reason = (
        "tier raised FloatingPointError"
        if get_numpy() is not None
        else "numpy absent"
    )
    assert telemetry.counters[f"batch.demoted[{reason}]"] == len(runs)


@pytest.mark.parametrize("engine", ["timed", "lockstep"])
def test_exploding_tally_producer_demotes_whole_cell(monkeypatch, engine):
    """An adaptive liar's tally ranking blowing up mid-run — after rounds
    already advanced every run's state — demotes the whole cell: no row of
    the half-run program survives."""
    spec = CampaignSpec(
        name="liar-fault-injection",
        algorithms=("class-2",),
        models=((9, 1, 1),),
        engines=(engine,),
        scenarios=("async_then_sync",),
        repetitions=6,
        seed=13,
    )
    runs = tuple(spec.iter_runs())
    assert all(plan_for_run(run).mode == MODE_COLUMNAR_STATE for run in runs)
    oracle = canonical(execute_chunk(runs, False, "scalar"))
    calls = []

    def exploding(self, tally):
        calls.append(None)
        if len(calls) < 4:
            return original(self, tally)
        raise OverflowError("injected: tally ranking broke in round 4")

    original = CellProgram._ranked
    monkeypatch.setattr(CellProgram, "_ranked", exploding)
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert canonical(rows) == oracle
    assert all(row["_backend"] == "scalar" for row in rows)
    reason = (
        "tier raised OverflowError" if get_numpy() is not None else "numpy absent"
    )
    assert telemetry.counters[f"batch.demoted[{reason}]"] == len(runs)
    assert "batch.columnar_state_rows" not in telemetry.counters


def test_template_demotion_carries_its_reason(monkeypatch, columnar_state_runs):
    """A ``Demote`` raised while building templates names itself."""
    if get_numpy() is None:
        pytest.skip("numpy absent demotes before any template is built")
    runs = columnar_state_runs

    def stale(self, number):
        raise Demote("value 'x' escaped the cell alphabet")

    monkeypatch.setattr(CellProgram, "_build_template", stale)
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert canonical(rows) == canonical(execute_chunk(runs, False, "scalar"))
    key = "batch.demoted[value 'x' escaped the cell alphabet]"
    assert telemetry.counters[key] == len(runs)


def test_replicate_exception_demotes_to_scalar(monkeypatch):
    """The replicate tier's fault injection: same demotion contract."""
    spec = CampaignSpec(
        name="replicate-fault-injection",
        algorithms=("pbft",),
        models=((4, 1, 0),),
        engines=("lockstep",),
        scenarios=("fault-free",),
        repetitions=5,
        seed=2,
    )
    runs = tuple(spec.iter_runs())
    assert all(plan_for_run(run).mode == MODE_REPLICATE for run in runs)

    def exploding(_runs):
        raise RuntimeError("injected: replicate broke")

    monkeypatch.setattr("repro.engine.batch.kernel._replicate_rows", exploding)
    oracle = canonical(execute_chunk(runs, False, "scalar"))
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert canonical(rows) == oracle
    assert telemetry.counters["batch.fallback_scalar"] == len(runs)
    assert telemetry.counters["batch.demoted[tier raised RuntimeError]"] == len(runs)
    assert "batch.replicated_rows" not in telemetry.counters
