"""The batch backend's RNG-stream contract and row byte-identity.

Batch row *b* must consume exactly the streams of the scalar run with the
same coordinate-derived seed (see :mod:`repro.engine.batch`'s package
docstring).  This suite pins every layer of that claim:

* :class:`~repro.utils.accel.StreamSet` reproduces a ``random.Random``
  stream bit for bit, block after block;
* the planner proves tiers conservatively (known cells land where the
  design says they land — three tiers, no fourth);
* :func:`~repro.engine.batch.run_batch` reproduces the scalar oracle's
  rows byte-for-byte on representative cells of every tier and both
  engines' columnar-state mask producers, with and without numpy, at any
  batch composition.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest

from repro.campaigns import BUILTIN_CAMPAIGNS
from repro.campaigns.results import row_to_json
from repro.campaigns.runner import execute_run
from repro.engine.batch import (
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    MODE_SCALAR,
    BatchPlan,
    cell_key,
    columnar_state_blockers,
    plan_cell,
    plan_for_run,
    run_batch,
)
from repro.engine.cell import admit
from repro.scenarios import CommSpec, ScenarioSpec, register_scenario
from repro.scenarios.registry import SCENARIO_REGISTRY, get_scenario
from repro.utils.accel import StreamSet, get_numpy

HAVE_NUMPY = get_numpy() is not None

GAUNTLET = BUILTIN_CAMPAIGNS["gauntlet"]


# ----------------------------------------------------------- StreamSet


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_stream_set_matches_scalar_stream_from_seed():
    reference = random.Random(99)
    assert [float(v) for v in StreamSet(get_numpy(), [99]).block([0], 700)[0]] == [
        reference.random() for _ in range(700)
    ]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_stream_set_consecutive_blocks_continue_one_stream():
    reference = random.Random(7)
    rng = StreamSet(get_numpy(), [7])
    got = []
    for k in (2, 600, 1, 3):
        got.extend(float(v) for v in rng.block([0], k)[0])
    assert got == [reference.random() for _ in range(606)]


# ------------------------------------------------------------- the planner


def test_plan_deterministic_cells_replicate():
    for name in ("fault-free", "worst_case", "silent_minority",
                 "crash_storm", "partition_heal"):
        scenario = get_scenario(name)
        for engine in ("lockstep", "timed"):
            plan = plan_cell(scenario, engine)
            assert plan.mode == MODE_REPLICATE, (name, engine, plan)


def _resolved(algorithm="class-2", model=(7, 1, 1)):
    return admit(algorithm, *model)[1:]


def test_plan_stochastic_cells_need_parameters_for_columnar_state():
    """Without resolved parameters nothing proves the reductions: scalar."""
    parameters, config = _resolved()
    for name in ("lossy_channel", "flaky_gst"):
        scenario = get_scenario(name)
        for engine in ("lockstep", "timed"):
            assert plan_cell(scenario, engine).mode == MODE_SCALAR, name
            plan = plan_cell(scenario, engine, config, parameters=parameters)
            assert plan.mode == MODE_COLUMNAR_STATE, (name, engine)


@pytest.mark.parametrize("engine", ["lockstep", "timed"])
def test_plan_ineligible_stochastic_cells_fall_to_scalar(engine):
    """crashes / async-prel / an unlisted strategy / a coin: the oracle, and
    ``columnar_state_blockers`` names every failed clause.  The inbox-reading
    ``adaptive-liar`` is not among them: its tally has an array form."""
    parameters, config = _resolved()
    lossy = get_scenario("lossy_channel")
    liar = get_scenario("async_then_sync")
    crashing = dataclasses.replace(lossy, crashes=1)
    prel = dataclasses.replace(lossy, comm=CommSpec(kind="async-prel"))
    both = dataclasses.replace(
        liar, crashes=1, byzantine=("adaptive-liar", "some-future-adversary")
    )
    assert columnar_state_blockers(liar, parameters, config) == []
    plan = plan_cell(liar, engine, config, parameters=parameters)
    assert plan.mode == MODE_COLUMNAR_STATE
    for scenario, fragments in (
        (crashing, ["crash script"]),
        (prel, ["'async-prel'"]),
        (both, ["crash script", "'some-future-adversary' has no array form"]),
    ):
        plan = plan_cell(scenario, engine, config, parameters=parameters)
        assert plan.mode == MODE_SCALAR, scenario
        why = columnar_state_blockers(scenario, parameters, config)
        assert len(why) == len(fragments)
        for clause, fragment in zip(why, fragments):
            assert fragment in clause
    assert columnar_state_blockers(lossy, parameters, config) == []

    coin = dataclasses.replace(config, coin=lambda phase: "1")
    plan = plan_cell(lossy, engine, coin, parameters=parameters)
    assert plan.mode == MODE_SCALAR and "coin" in plan.reason


def test_gauntlet_tier_tally():
    """Replicate 50 / columnar-state 30 / scalar 16 — no fourth tier, and
    the scalar cells are exactly the ones no tier could run: class-1 does
    not admit (7,1,1)."""
    from collections import Counter

    runs = list(GAUNTLET.iter_runs())
    tally = Counter(plan_for_run(run).mode for run in runs)
    assert tally == {
        MODE_REPLICATE: 50, MODE_COLUMNAR_STATE: 30, MODE_SCALAR: 16
    }
    assert {
        (run.algorithm, run.n, run.b, run.f)
        for run in runs
        if plan_for_run(run).mode == MODE_SCALAR
    } == {("class-1", 7, 1, 1)}


def test_plan_randomized_coin_forces_scalar():
    scenario = get_scenario("fault-free")

    class CoinConfig:
        coin = staticmethod(lambda phase: "1")

    assert plan_cell(scenario, "lockstep", CoinConfig()).mode == MODE_SCALAR


def test_plan_unknown_strategy_forces_scalar():
    scenario = dataclasses.replace(
        get_scenario("worst_case"), byzantine=("some-future-adversary",)
    )
    assert plan_cell(scenario, "lockstep").mode == MODE_SCALAR


def test_plan_slow_scheduler_env_forces_scalar_on_timed(monkeypatch):
    """The heap oracle is timed-only: lockstep cells keep their tier."""
    scenario = get_scenario("lossy_channel")
    parameters, config = _resolved()
    monkeypatch.setenv("REPRO_SLOW_SCHEDULER", "1")
    for engine, mode in (("timed", MODE_SCALAR), ("lockstep", MODE_COLUMNAR_STATE)):
        plan = plan_cell(scenario, engine, config, parameters=parameters)
        assert plan.mode == mode
    monkeypatch.delenv("REPRO_SLOW_SCHEDULER")
    plan = plan_cell(scenario, "timed", config, parameters=parameters)
    assert plan.mode == MODE_COLUMNAR_STATE


# --------------------------------------------------- run_batch byte-identity


def _cell_runs(scenario_name, engine, repetitions=6, algorithm="class-2",
               model=(7, 1, 1)):
    spec = dataclasses.replace(
        GAUNTLET,
        scenarios=(scenario_name,),
        algorithms=(algorithm,),
        models=(model,),
        engines=(engine,),
        repetitions=repetitions,
    )
    runs = list(spec.iter_runs())
    assert len({cell_key(run) for run in runs}) == 1
    return runs


def _assert_rows_match_oracle(runs, rows):
    assert len(rows) == len(runs)
    for run, row in zip(runs, rows):
        assert row["run_id"] == run.run_id
        assert row_to_json(row) == row_to_json(execute_run(run))


@pytest.mark.parametrize(
    "scenario,engine,expected_mode",
    [
        ("fault-free", "lockstep", MODE_REPLICATE),
        ("partition_heal", "timed", MODE_REPLICATE),
        ("flaky_gst", "timed", MODE_COLUMNAR_STATE),
        ("lossy_channel", "timed", MODE_COLUMNAR_STATE),
        ("flaky_gst", "lockstep", MODE_COLUMNAR_STATE),
        ("lossy_channel", "lockstep", MODE_COLUMNAR_STATE),
        ("async_then_sync", "timed", MODE_COLUMNAR_STATE),
        ("async_then_sync", "lockstep", MODE_COLUMNAR_STATE),
    ],
)
def test_run_batch_matches_oracle(scenario, engine, expected_mode):
    runs = _cell_runs(scenario, engine)
    assert plan_for_run(runs[0]).mode == expected_mode
    _assert_rows_match_oracle(runs, run_batch(runs))


@pytest.mark.parametrize(
    "scenario,engine",
    [("partition_heal", "timed"), ("flaky_gst", "timed"),
     ("flaky_gst", "lockstep"), ("lossy_channel", "lockstep")],
)
def test_run_batch_matches_oracle_without_numpy(
    monkeypatch, scenario, engine
):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    runs = _cell_runs(scenario, engine)
    _assert_rows_match_oracle(runs, run_batch(runs))


@pytest.mark.parametrize("engine", ["timed", "lockstep"])
@pytest.mark.parametrize(
    "scenario", ["flaky_gst", "lossy_channel", "async_then_sync"]
)
def test_run_batch_rows_independent_of_batch_composition(scenario, engine):
    """A run's row is the same at B = 1, 5 and 32: each run draws from its
    own streams only, however many neighbours share the array program."""
    runs = _cell_runs(scenario, engine, repetitions=32, algorithm="class-3",
                      model=(9, 1, 1))
    full = [row_to_json(row) for row in run_batch(runs)]
    assert [row_to_json(r) for r in run_batch(runs[3:8])] == full[3:8]
    for index in (0, 17, 31):
        (alone,) = run_batch([runs[index]])
        assert alone["_backend"] == ("columnar-state" if HAVE_NUMPY else "scalar")
        assert row_to_json(alone) == full[index]
    subset = [runs[1], runs[4]]
    assert [row_to_json(r) for r in run_batch(subset)] == [full[1], full[4]]


# ------------------------------------- the adaptive liar as an array program


@functools.lru_cache(maxsize=None)
def _liar_cell(engine, algorithm, model):
    """One ``async_then_sync`` cell at reps 32 with its oracle lines; the
    reps-4 cell is its first four runs (a run's seed derives from its
    coordinate, not from how many repetitions the grid has)."""
    runs = _cell_runs("async_then_sync", engine, 32, algorithm, model)
    assert runs[:4] == _cell_runs("async_then_sync", engine, 4, algorithm, model)
    return runs, [row_to_json(execute_run(run)) for run in runs]


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "no-numpy"])
@pytest.mark.parametrize("model", [(9, 1, 1), (21, 2, 2)])
@pytest.mark.parametrize("algorithm", ["class-1", "class-2", "class-3"])
@pytest.mark.parametrize("engine", ["lockstep", "timed"])
def test_adaptive_liar_cells_match_oracle(
    monkeypatch, engine, algorithm, model, numpy
):
    """The GST scenario on the columnar-state tier, every class, both
    engines, at the batch floor and at reps 32; demoted (same bytes)
    without numpy."""
    if not numpy:
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    runs, oracle = _liar_cell(engine, algorithm, model)
    assert plan_for_run(runs[0]).mode == MODE_COLUMNAR_STATE
    tier = "columnar-state" if numpy and HAVE_NUMPY else "scalar"
    for batch in (runs[:4], runs):
        rows = run_batch(batch)
        assert {row["_backend"] for row in rows} == {tier}
        assert [row_to_json(row) for row in rows] == oracle[: len(batch)]


def _liar_scenario(name, byzantine=("adaptive-liar",), count=1, **comm):
    return ScenarioSpec(
        name=name, byzantine=byzantine, byzantine_count=count,
        comm=CommSpec(**comm), max_phases=12,
    )


LIAR_MIXES = [
    _liar_scenario("liar_lossy", kind="lossy", drop_prob=0.3),
    _liar_scenario("liar_partition", kind="good-bad", schedule="after",
                   good_from=7, bad="partition"),
    _liar_scenario("liar_flaky", kind="good-bad", schedule="alternating",
                   good_len=2, bad_len=1, bad="drop", drop_prob=0.5),
    # Two liars: each tallies the other's (and its own) per-run payloads.
    _liar_scenario("two_liars", count=2, kind="lossy", drop_prob=0.4),
    # ``worst_case``'s strategy mix, one of each, under loss.
    _liar_scenario(
        "worst_mix_lossy",
        byzantine=("equivocator", "high-ts-liar", "fake-history-liar",
                   "adaptive-liar"),
        count=4, kind="lossy", drop_prob=0.3,
    ),
]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("engine", ["lockstep", "timed"])
@pytest.mark.parametrize("algorithm", ["class-1", "class-2", "class-3"])
@pytest.mark.parametrize("scenario", LIAR_MIXES, ids=lambda spec: spec.name)
def test_adaptive_liar_mixes_match_oracle(scenario, algorithm, engine):
    """The liar under every mask producer and beside every other strategy
    with an array form: columnar-state, no demotion, the oracle's bytes."""
    from repro.observability import Telemetry

    runs = _cell_runs(scenario, engine, 8, algorithm, (21, 4, 0))
    telemetry = Telemetry()
    rows = run_batch(
        runs, telemetry=telemetry, plan=BatchPlan(MODE_COLUMNAR_STATE, "forced")
    )
    assert telemetry.counters["batch.columnar_state_rows"] == len(runs)
    _assert_rows_match_oracle(runs, rows)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("engine", ["lockstep", "timed"])
def test_adaptive_liar_under_reliable_comm_columnar_equals_replicate(engine):
    """A reliable cell plans replicate; forced onto the array program it
    yields the same rows — the tally form agrees with the run it clones."""
    scenario = _liar_scenario("liar_reliable", kind="reliable")
    runs = _cell_runs(scenario, engine, 4, "class-3", (9, 1, 1))
    assert plan_for_run(runs[0]).mode == MODE_REPLICATE
    replicated = run_batch(runs)
    columnar = run_batch(runs, plan=BatchPlan(MODE_COLUMNAR_STATE, "forced"))
    assert {row["_backend"] for row in columnar} == {"columnar-state"}
    assert [row_to_json(r) for r in columnar] == [
        row_to_json(r) for r in replicated
    ]
    _assert_rows_match_oracle(runs, columnar)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_adaptive_liar_ranking_matches_scalar_rule_on_ties():
    """``CellProgram._ranked`` against ``AdaptiveLiar._split_values`` on
    forced minority/majority count ties, whatever order values were seen in."""
    from repro.engine.batch.columnar_state import CellProgram
    from repro.engine.batch.kernel import compile_batch_scenario
    from repro.faults.byzantine import AdaptiveLiar

    np = get_numpy()
    (run,) = _cell_runs("async_then_sync", "lockstep", 1, "class-2", (9, 1, 1))
    parameters, _ = _resolved("class-2", (9, 1, 1))
    program = CellProgram(
        np, run, parameters, compile_batch_scenario(run, parameters.model)
    )
    alphabet = program.alphabet
    assert len(alphabet) == 3  # two honest values and the liar's fallback
    rng = random.Random(4)
    tallies = [[0, 0, 0], [3, 3, 3], [0, 2, 2], [2, 2, 0], [1, 0, 1]]
    tallies += [[rng.randrange(3) for _ in alphabet] for _ in range(40)]
    ranked = program._ranked(np.array(tallies, dtype=np.int64)[:, None, :])
    for counts, (low, high) in zip(tallies, ranked.tolist()):
        liar = AdaptiveLiar(next(iter(program.liars)), parameters)
        seen = [(v, c) for v, c in zip(alphabet, counts) if c]
        rng.shuffle(seen)
        liar._tally = dict(seen)
        assert (alphabet[low], alphabet[high]) == liar._split_values(), counts


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_adaptive_liar_beside_noise_demotes_with_reason():
    """``noise`` hands the liar malformed Selection/Decision instances it
    would tally and no overlay carries: the cell names that and runs scalar."""
    from repro.observability import Telemetry

    scenario = _liar_scenario(
        "liar_noise", byzantine=("adaptive-liar", "noise"), count=2,
        kind="lossy", drop_prob=0.3,
    )
    runs = _cell_runs(scenario, "lockstep", 5, "class-2", (21, 2, 2))
    assert plan_for_run(runs[0]).mode == MODE_COLUMNAR_STATE
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    reason = "adaptive-liar would tally a payload the overlays do not carry"
    assert telemetry.counters[f"batch.demoted[{reason}]"] == len(runs)
    assert {row["_backend"] for row in rows} == {"scalar"}
    _assert_rows_match_oracle(runs, rows)


def test_run_batch_tags_rows_with_backend():
    runs = _cell_runs("fault-free", "lockstep", repetitions=3)
    rows = run_batch(runs)
    assert {row["_backend"] for row in rows} == {"replicate"}
    # Volatile: the canonical serialization never carries the tag.
    assert all('"_backend"' not in row_to_json(row) for row in rows)


def test_run_batch_counts_telemetry():
    from repro.observability import Telemetry

    telemetry = Telemetry()
    runs = _cell_runs("lossy_channel", "timed", repetitions=4)
    run_batch(runs, telemetry=telemetry)
    assert telemetry.counters["batch.rows"] == 4
    # Without numpy the columnar-state tier demotes straight to the
    # oracle, and the counters say so, reason included.
    if HAVE_NUMPY:
        assert telemetry.counters["batch.columnar_state_rows"] == 4
        assert not any(k.startswith("batch.demoted") for k in telemetry.counters)
    else:
        assert telemetry.counters["batch.fallback_scalar"] == 4
        assert telemetry.counters["batch.demoted[numpy absent]"] == 4
    assert "batch.columnar-state" in telemetry.span_names

    # A planned-scalar cell falls back without counting as demoted.
    telemetry = Telemetry()
    crashing = dataclasses.replace(
        get_scenario("lossy_channel"), name="lossy_crash", crashes=1
    )
    runs = _cell_runs(crashing, "lockstep", repetitions=4)
    assert plan_for_run(runs[0]).mode == MODE_SCALAR
    run_batch(runs, telemetry=telemetry)
    assert telemetry.counters["batch.fallback_scalar"] == 4
    assert not any(k.startswith("batch.demoted") for k in telemetry.counters)


@pytest.mark.parametrize(
    "scenario,engine,mode",
    [
        ("worst_case", "lockstep", MODE_REPLICATE),
        ("lossy_channel", "timed", MODE_COLUMNAR_STATE),
        ("lossy_crash", "lockstep", MODE_SCALAR),
    ],
)
def test_every_tier_has_a_span_covering_its_work(scenario, engine, mode):
    """``repro profile --batch``'s span table accounts for the batch wall
    on every tier, not only the array one."""
    from time import perf_counter

    from repro.observability import Telemetry

    if scenario == "lossy_crash":
        scenario = dataclasses.replace(
            get_scenario("lossy_channel"), name=scenario, crashes=1
        )
    runs = _cell_runs(scenario, engine, repetitions=8)
    assert plan_for_run(runs[0]).mode == mode
    telemetry = Telemetry()
    started = perf_counter()
    run_batch(runs, telemetry=telemetry)
    wall = perf_counter() - started
    assert f"batch.{mode}" in telemetry.span_names
    assert telemetry.total_span_seconds() >= 0.9 * wall


def test_run_batch_demotion_reason_without_numpy(monkeypatch):
    """numpy absent: rows are the oracle's, the reason is on the counter,
    and the result bytes are the same with and without telemetry."""
    from repro.observability import Telemetry

    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    runs = _cell_runs("lossy_channel", "lockstep", repetitions=5)
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert telemetry.counters["batch.demoted[numpy absent]"] == 5
    assert [row_to_json(r) for r in rows] == [
        row_to_json(r) for r in run_batch(runs)
    ]
    _assert_rows_match_oracle(runs, rows)


def test_run_batch_inadmissible_cell_matches_oracle():
    """Resolution failures degrade to the scalar tier's proper rows."""
    spec = dataclasses.replace(
        GAUNTLET,
        scenarios=("fault-free",),
        algorithms=("class-2",),
        models=((3, 1, 1),),  # violates n > 4b + 2f
        engines=("lockstep",),
        repetitions=4,
    )
    runs = list(spec.iter_runs())
    assert plan_for_run(runs[0]).mode == MODE_SCALAR
    rows = run_batch(runs)
    assert {row["status"] for row in rows} == {"inadmissible"}
    _assert_rows_match_oracle(runs, rows)


@pytest.fixture()
def byz_lossy_scenario():
    spec = ScenarioSpec(
        name="byz_lossy_backend",
        byzantine=("equivocator",),
        comm=CommSpec(kind="lossy", drop_prob=0.3),
    )
    register_scenario(spec)
    try:
        yield spec
    finally:
        del SCENARIO_REGISTRY[spec.name]


@pytest.mark.parametrize("engine", ["lockstep", "timed"])
def test_run_batch_inapplicable_cell_matches_oracle(byz_lossy_scenario, engine):
    """The columnar-state prologue maps ScenarioInapplicable like the oracle."""
    spec = dataclasses.replace(
        GAUNTLET,
        scenarios=(byz_lossy_scenario.name,),  # byzantine placement, but b = 0
        algorithms=("class-2",),
        models=((4, 0, 1),),
        engines=(engine,),
        repetitions=3,
    )
    runs = list(spec.iter_runs())
    assert plan_for_run(runs[0]).mode == MODE_COLUMNAR_STATE
    rows = run_batch(runs)
    assert {row["status"] for row in rows} == {"inapplicable"}
    if HAVE_NUMPY:
        assert {row["_backend"] for row in rows} == {"columnar-state"}
    _assert_rows_match_oracle(runs, rows)


def test_resolve_backend_validation():
    from repro.campaigns.runner import resolve_backend

    assert resolve_backend() == "auto"
    assert resolve_backend("scalar") == "scalar"
    with pytest.raises(ValueError):
        resolve_backend("vectorized")
