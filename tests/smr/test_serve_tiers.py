"""Serve tiers: a replicated cell is checked against the per-slot path.

``run_serve`` asks the campaign planner once per serve; on a ``replicate``
verdict it decides the first slot and reuses that slot outcome.  Nothing
here trusts the argument for why that is sound — every test compares the
planner's real answer against the same serve with the planner substituted
to answer ``scalar`` (one instance per attempt, the only path before the
tiers existed), and a negative control substitutes ``replicate`` where it
is unsound to prove the comparison can fail.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.algorithms import ALGORITHM_BUILDERS
from repro.core.types import (
    DecisionMessage,
    RoundInfo,
    RoundKind,
    SelectionMessage,
    ValidationMessage,
)
from repro.engine.batch.plan import (
    DETERMINISTIC_STRATEGIES,
    MODE_REPLICATE,
    MODE_SCALAR,
    BatchPlan,
)
from repro.faults.registry import STRATEGY_REGISTRY, build_byzantine
from repro.scenarios import (
    SCENARIO_REGISTRY,
    CommSpec,
    ScenarioInapplicable,
    ScenarioSpec,
)
from repro.smr import ServeConfig, WorkloadSpec, run_serve

WORKLOAD = WorkloadSpec(clients=3, rate=30.0, duration=0.4, seed=9)

#: algorithm, n, b, f
MODELS = [
    ("pbft", 4, 1, 0),
    ("class-2", 5, 1, 0),
    ("paxos", 3, 0, 1),
    ("mqb", 6, 1, 0),
]
ENGINES = ("lockstep", "timed")
PIPELINES = ((1, 1), (4, 3))

HEALING = CommSpec(kind="good-bad", schedule="after", good_from=4, bad="partition")
SILENCE = CommSpec(
    kind="good-bad", schedule="alternating", good_len=1, bad_len=2, bad="silence"
)
COIN_DRAWING = ("lossy_channel", "flaky_gst", "async_then_sync")


def _scenarios():
    """The 8 registered scenarios + every strategy alone, under a healing
    partition and under alternating silence (the stalling cells)."""
    yield from (SCENARIO_REGISTRY[name] for name in sorted(SCENARIO_REGISTRY))
    for strategy in sorted(STRATEGY_REGISTRY):
        yield ScenarioSpec(name=f"{strategy}-alone", byzantine=(strategy,))
        yield ScenarioSpec(
            name=f"{strategy}-healing", byzantine=(strategy,), comm=HEALING,
            max_phases=12,
        )
        yield ScenarioSpec(
            name=f"{strategy}-silence", byzantine=(strategy,), comm=SILENCE,
            max_phases=6,
        )


@contextmanager
def planner_answers(mode):
    """Substitute the planner's verdict for every serve in the block."""
    plan = BatchPlan(mode, "substituted by the test")
    with mock.patch("repro.smr.serve.plan_cell", lambda *a, **k: plan):
        yield


def _facts(report):
    """Everything a tier must not change: row, counters, histograms."""
    row = report.to_row()
    for volatile in ("_wall_seconds", "throughput"):
        row.pop(volatile)
    telemetry = report.telemetry
    counters = dict(telemetry.counters)
    # The two counters that *say* which tier served differ by design.
    for tier_counter in ("smr.instances_run", "smr.slots_replicated"):
        counters.pop(tier_counter, None)
    histograms = {
        name: telemetry.histogram_stats(name)
        for name in telemetry.histogram_names
    }
    return row, counters, histograms


def _cells(scenarios, models=MODELS):
    for scenario in scenarios:
        for algorithm, n, b, f in models:
            for engine in ENGINES:
                for batch, depth in PIPELINES:
                    yield ServeConfig(
                        algorithm=algorithm, n=n, b=b, f=f, scenario=scenario,
                        engine=engine, batch=batch, depth=depth, seed=14,
                    )


@pytest.fixture(scope="module")
def differential():
    """(config, planned report, per-slot report) for every servable cell."""
    served = []
    for config in _cells(list(_scenarios())):
        try:
            planned = run_serve(config, WORKLOAD)
        except ScenarioInapplicable:
            continue  # benign model, Byzantine scenario (or the reverse)
        with planner_answers(MODE_SCALAR):
            per_slot = run_serve(config, WORKLOAD)
        served.append((config, planned, per_slot))
    return served


def _replicated(report):
    return report.tier.startswith(MODE_REPLICATE)


class TestDifferential:
    def test_tiers_agree_on_every_cell(self, differential):
        assert len(differential) > 300
        mismatches = [
            (config.algorithm, config.scenario_spec().name, config.engine,
             config.batch, config.depth)
            for config, planned, per_slot in differential
            if _facts(planned) != _facts(per_slot)
        ]
        assert mismatches == []

    def test_sample_holds_the_hard_cells(self, differential):
        replicated = [p for _c, p, _s in differential if _replicated(p)]
        per_slot = [p for _c, p, _s in differential if not _replicated(p)]
        assert replicated and per_slot
        # A replicated first slot that retries exhausts its attempts (every
        # attempt is the same run), so retry and stall arrive together.
        assert any(p.stalled and p.retries for p in replicated)
        assert any(p.committed_commands for p in replicated)
        # Rejected (Byzantine-injected) values reach the shared epilogue
        # from the per-slot side.
        assert any(p.rejected for p in per_slot)
        assert any(p.retries and not p.stalled for p in per_slot)

    def test_instances_run_says_which_tier_served(self, differential):
        for _config, planned, per_slot in differential:
            for report in (planned, per_slot):
                counters = report.telemetry.counters
                ran = counters.get("smr.instances_run", 0)
                cloned = counters.get("smr.slots_replicated", 0)
                slots = counters.get("smr.slots", 0)
                if _replicated(report):
                    # One slot decided (its retries included), the rest reused.
                    assert ran == min(slots, 1) + report.retries
                    assert cloned == max(slots - 1, 0)
                else:
                    assert ran == slots + report.retries
                    assert cloned == 0

    def test_lossy_cell_runs_one_instance_per_attempt(self):
        config = ServeConfig(scenario="lossy_channel", batch=2, depth=2, seed=3)
        report = run_serve(config, WORKLOAD)
        counters = report.telemetry.counters
        assert report.tier.startswith(MODE_SCALAR)
        assert report.retries > 0
        assert counters["smr.instances_run"] == (
            report.slots_committed + report.retries
        )
        assert "smr.slots_replicated" not in counters

    def test_replicated_cell_runs_one_instance(self):
        report = run_serve(ServeConfig(scenario="worst_case", seed=3), WORKLOAD)
        counters = report.telemetry.counters
        assert report.tier == "replicate — deterministic lockstep delivery"
        assert counters["smr.instances_run"] == 1
        assert counters["smr.slots_replicated"] == report.slots_committed - 1


def test_negative_control_unsound_replication_is_caught():
    """Forcing ``replicate`` on coin-drawing cells must break the identity."""
    scenarios = [SCENARIO_REGISTRY[name] for name in COIN_DRAWING]
    differing = 0
    for config in _cells(scenarios, models=MODELS[:1]):
        per_slot = run_serve(config, WORKLOAD)
        assert not _replicated(per_slot)
        with planner_answers(MODE_REPLICATE):
            forced = run_serve(config, WORKLOAD)
        differing += _facts(forced) != _facts(per_slot)
    assert differing >= 1


# ---------------------------------------------------- the whitelist contract


def _uttered_values(payload):
    """Every consensus value a (possibly malformed) payload carries."""
    if isinstance(payload, SelectionMessage):
        yield payload.vote
        if isinstance(payload.history, (set, frozenset)):
            for entry in payload.history:
                if isinstance(entry, tuple) and entry:
                    yield entry[0]
    elif isinstance(payload, ValidationMessage):
        yield payload.select
    elif isinstance(payload, DecisionMessage):
        yield payload.vote


@pytest.mark.parametrize("name", sorted(DETERMINISTIC_STRATEGIES))
def test_whitelisted_strategy_utters_only_str_or_echoes(name):
    """What a strategy must satisfy before it may join the whitelist.

    Replication across serve slots rests on the batch (a ``tuple``) keeping
    its rank among the run's values; a strategy inventing a ``tuple`` (or
    any non-``str``) value of its own could outrank one batch and not the
    next.
    """
    parameters = ALGORITHM_BUILDERS["pbft"](4).parameters
    strategy = build_byzantine(3, name, parameters)
    shown = set()
    kinds = (RoundKind.SELECTION, RoundKind.VALIDATION, RoundKind.DECISION)
    for number in range(1, 13):
        phase = (number - 1) // 3 + 1
        info = RoundInfo(number, phase, kinds[(number - 1) % 3])
        for payload in strategy.send(info).values():
            for value in _uttered_values(payload):
                assert isinstance(value, str) or value in shown, (name, value)
        votes = [("set", f"k{number}", pid) for pid in range(3)]
        shown.update(votes)
        strategy.receive(
            info,
            {
                0: SelectionMessage(votes[0], phase - 1, frozenset(), frozenset()),
                1: DecisionMessage(votes[1], phase),
                2: ValidationMessage(votes[2], frozenset({0, 1, 2})),
            },
        )


# ------------------------------------------------------- the latency split


@pytest.mark.parametrize("scenario", ["worst_case", "lossy_channel"])
def test_latency_parts_sum_to_the_request_latency(scenario):
    config = ServeConfig(scenario=scenario, batch=3, depth=3, seed=2)
    telemetry = run_serve(config, WORKLOAD).telemetry
    total = telemetry._histograms["smr.request_latency"]
    parts = [
        telemetry._histograms[f"smr.latency.{part}"]
        for part in ("queue_wait", "consensus", "apply_wait")
    ]
    assert total and all(len(part) == len(total) for part in parts)
    for whole, *pieces in zip(total, *parts):
        assert all(piece >= 0 for piece in pieces)
        assert abs(sum(pieces) - whole) < 1e-9
