"""One horizon on every route: a run executes ``max(requested, suggested)``
phases, whichever path it takes.

The scenario loses every message, so no run decides and each route runs to
its horizon; the rounds it executed then read the horizon back.
"""

import io
import re
from contextlib import redirect_stdout

import pytest

from repro.campaigns.runner import execute_run
from repro.cli import main
from repro.core.process import RoundStructure
from repro.engine.batch import BatchPlan, run_batch
from repro.engine.batch.plan import MODE_COLUMNAR_STATE
from repro.engine.cell import RunSpec, admit
from repro.fuzz.classify import execute_candidate
from repro.fuzz.space import FuzzCandidate
from repro.scenarios import CommSpec, ScenarioSpec, run_scenario
from repro.scenarios.registry import SCENARIO_REGISTRY
from repro.smr import ServeConfig, WorkloadSpec, run_serve
from repro.utils.accel import get_numpy

CELL = ("pbft", 4, 1, 0)
ENGINE = "lockstep"
SEED = 3


def _scenario(suggested):
    return ScenarioSpec(
        name="drop_everything",
        comm=CommSpec(kind="lossy", drop_prob=1.0),
        max_phases=suggested,
    )


def _run_spec(scenario, requested):
    return RunSpec(
        "horizon", 0, *CELL, ENGINE, scenario, 0, SEED, requested
    )


def _route_run_scenario(scenario, requested):
    _model, parameters, config = admit(*CELL)
    outcome = run_scenario(
        scenario, parameters, engine=ENGINE, rng=SEED, config=config,
        observe="metrics", max_phases=requested,
    )
    assert not outcome.decisions
    return outcome.rounds_executed


def _route_execute_run(scenario, requested):
    row = execute_run(_run_spec(scenario, requested))
    assert row["decided"] == 0
    return row["rounds"]


def _route_execute_candidate(scenario, requested):
    algorithm, n, b, f = CELL
    candidate = FuzzCandidate(algorithm, n, b, f, ENGINE, scenario, requested)
    row = execute_candidate(candidate, SEED)
    assert row["decided"] == 0
    return row["rounds"]


def _route_columnar_state(scenario, requested):
    runs = [_run_spec(scenario, requested)] * 4
    rows = run_batch(runs, plan=BatchPlan(MODE_COLUMNAR_STATE, "forced"))
    if get_numpy() is not None:
        assert {row["_backend"] for row in rows} == {"columnar-state"}
    assert {row["decided"] for row in rows} == {0}
    (rounds,) = {row["rounds"] for row in rows}
    return rounds


def _route_serve(scenario, requested):
    algorithm, n, b, f = CELL
    config = ServeConfig(
        algorithm=algorithm, n=n, b=b, f=f, scenario=scenario, engine=ENGINE,
        batch=1, depth=1, seed=SEED, max_phases=requested, max_attempts=1,
    )
    report = run_serve(config, WorkloadSpec(clients=1, rate=4.0, duration=1.0))
    assert report.stalled
    assert report.telemetry.counters["smr.instances_run"] == 1
    return report.telemetry.counters["smr.rounds"]


def _route_cli(scenario, requested):
    algorithm, n, b, f = CELL
    with redirect_stdout(io.StringIO()) as stdout:
        main([
            "scenario", "run", scenario.name, "--algorithm", algorithm,
            "--n", str(n), "--b", str(b), "--f", str(f), "--engine", ENGINE,
            "--seed", str(SEED), "--max-phases", str(requested),
        ])
    out = stdout.getvalue()
    assert "termination : False" in out
    return int(re.search(r"rounds\s+: (\d+)", out).group(1))


ROUTES = {
    "run_scenario": _route_run_scenario,
    "execute_run": _route_execute_run,
    "execute_candidate": _route_execute_candidate,
    "columnar_state": _route_columnar_state,
    "serve": _route_serve,
    "cli": _route_cli,
}


@pytest.mark.parametrize("suggested", [None, 18])
@pytest.mark.parametrize("requested", [1, 15, 30])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_runs_the_floor(route, requested, suggested, monkeypatch):
    _model, parameters, _config = admit(*CELL)
    horizon = max(requested, suggested or 0)
    expected = RoundStructure(parameters.flag).rounds_for_phases(horizon)
    scenario = _scenario(suggested)
    # The CLI takes registered scenario names only.
    monkeypatch.setitem(SCENARIO_REGISTRY, scenario.name, scenario)
    assert ROUTES[route](scenario, requested) == expected
