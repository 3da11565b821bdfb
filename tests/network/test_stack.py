"""The full stack: consensus over implemented Pcons.

A scenario fact (placement from the last process down, a comm schedule)
reaches the stack through ``compile_scenario(…, engine="pcons-auth" |
"pcons-sigfree")``; a WIC adversary mode or a Byzantine phase-1
coordinator (process 0) is not one, so those tests build the scheduler
directly.  Either way the one kernel runs it.
"""

import hashlib
import itertools
import json
import random

import pytest

from repro.algorithms import build_fab_paxos, build_mqb, build_pbft
from repro.campaigns import CampaignSpec
from repro.campaigns.runner import execute_run
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.selector import RotatingSubsetSelector
from repro.core.types import FaultModel
from repro.engine import build_instance, run_instance
from repro.faults import STRATEGY_REGISTRY
from repro.network.stack import PconsStackScheduler
from repro.network.wic import (
    AuthenticatedCoordinatorEcho,
    SignatureFreeCoordinatorEcho,
    WicAdversaryMode,
)
from repro.rounds.policies import random_drop_behavior, silent_behavior
from repro.rounds.schedule import GoodBadSchedule
from repro.scenarios import CommSpec, ScenarioInapplicable, ScenarioSpec
from repro.scenarios.compile import compile_scenario
from repro.scenarios.spec import split_values

#: SHA-256 of the reduced differential grid below, recorded at e19de90.
STACK_PIN = "58a5ea0182c64a8c3cedf503453068dfd00385caa422af6f8706065e2a3c6a87"

PCONS_ENGINES = ("pcons-auth", "pcons-sigfree")

#: One equivocator, placed on the last process.
EQUIVOCATOR = ScenarioSpec(
    name="equivocator", byzantine=("equivocator",), byzantine_count=1
)


def values_for(model):
    return {
        pid: f"v{pid % 2}" for pid in model.processes if pid != model.n - 1
    }


def run_engine(parameters, engine, scenario=EQUIVOCATOR, *, seed=0, max_phases=15):
    """``(outcome, scheduler)`` of one compiled run on ``engine``."""
    compiled = compile_scenario(scenario, parameters.model, engine, seed)
    outcome = run_instance(
        build_instance(
            parameters,
            split_values(parameters.model, compiled.byzantine),
            byzantine=compiled.byzantine,
        ),
        compiled.scheduler,
        max_phases=compiled.max_phases(max_phases),
        observe="metrics",
    )
    return outcome, compiled.scheduler


def run_direct(parameters, values, wic, *, byzantine, good_bad=None,
               config=None, max_phases=15):
    """``(outcome, scheduler)`` of one run whose scheduler is built here."""
    scheduler = PconsStackScheduler(wic, good_bad)
    outcome = run_instance(
        build_instance(parameters, values, config=config, byzantine=byzantine),
        scheduler,
        max_phases=max_phases,
        observe="metrics",
    )
    return outcome, scheduler


@pytest.mark.parametrize("builder,n", [(build_pbft, 4), (build_mqb, 5), (build_fab_paxos, 6)])
@pytest.mark.parametrize("engine", PCONS_ENGINES)
def test_algorithms_decide_over_implemented_pcons(builder, n, engine):
    outcome, scheduler = run_engine(builder(n).parameters, engine)
    assert outcome.agreement_holds
    assert outcome.all_correct_decided
    assert (1, True) in scheduler.pcons_observations


@pytest.mark.parametrize("strategy", sorted(STRATEGY_REGISTRY))
@pytest.mark.parametrize(
    "wic_cls", [AuthenticatedCoordinatorEcho, SignatureFreeCoordinatorEcho]
)
@pytest.mark.parametrize("position", [0, 3])
def test_no_byzantine_payload_crashes_honest_echo_logic(
    strategy, wic_cls, position
):
    """Whatever a Byzantine sender puts on the wire — ``noise`` sends
    unhashable dicts — honest relay/echo code treats it as an unmatched
    entry: no exception, and agreement holds."""
    parameters = build_pbft(4).parameters
    values = {pid: f"v{pid % 2}" for pid in range(4) if pid != position}
    outcome, _scheduler = run_direct(
        parameters, values, wic_cls(parameters.model),
        byzantine={position: strategy},
    )
    assert outcome.agreement_holds


def test_round_cost_difference():
    """Authenticated Pcons: 2 micro-rounds; signature-free: 3 (Section 2.2)."""
    parameters = build_pbft(4).parameters
    auth, free = (
        run_engine(parameters, engine, ScenarioSpec())[1]
        for engine in PCONS_ENGINES
    )
    assert auth.micro_rounds == 4  # 2 (Pcons) + validation + decision
    assert free.micro_rounds == 5  # 3 (Pcons) + validation + decision


def test_byzantine_coordinator_phase_recovers_later():
    """With the Byzantine process as phase-1 coordinator, Pcons may fail in
    phase 1 but the rotation reaches a correct coordinator and decides."""
    parameters = build_pbft(4).parameters
    outcome, _scheduler = run_direct(
        parameters,
        {pid: f"v{pid % 2}" for pid in (1, 2, 3)},
        SignatureFreeCoordinatorEcho(parameters.model),
        byzantine={0: "equivocator"},  # process 0 coordinates phase 1
        max_phases=6,
    )
    assert outcome.agreement_holds
    assert outcome.all_correct_decided


def test_bad_periods_delay_but_do_not_break():
    scenario = ScenarioSpec(
        name="late-good",
        byzantine=("equivocator",),
        comm=CommSpec(kind="good-bad", schedule="after", good_from=8,
                      bad="drop", drop_prob=0.7),
    )
    outcome, scheduler = run_engine(
        build_pbft(4).parameters, "pcons-sigfree", scenario, seed=4,
        max_phases=12,
    )
    assert outcome.agreement_holds
    assert outcome.all_correct_decided
    assert scheduler.micro_rounds > 5  # needed more than one clean phase


def _pcons_row(algorithm, model, engine):
    spec = CampaignSpec(
        name="pcons-refusal", algorithms=(algorithm,), models=(model,),
        engines=(engine,), scenarios=("fault-free",),
    )
    (run,) = spec.iter_runs()
    return execute_run(run)


def test_requires_pi_selector():
    """A selector that does not address all of Π is refused in the first
    selection round: ``ScenarioInapplicable``, an ``inapplicable`` row."""
    model = FaultModel(9, 1, 0)
    params = build_class_parameters(
        AlgorithmClass.CLASS_2, model, selector=RotatingSubsetSelector(model)
    )
    for engine in PCONS_ENGINES:
        with pytest.raises(ScenarioInapplicable, match="all-processes"):
            run_engine(params, engine, ScenarioSpec())
        row = _pcons_row("paxos", (3, 0, 0), engine)
        assert row["status"] == "inapplicable"
        assert "all-processes" in row["error"]


def test_requires_f_zero():
    model = FaultModel(7, 1, 1)
    for engine in PCONS_ENGINES:
        with pytest.raises(ScenarioInapplicable, match="f = 0"):
            compile_scenario(ScenarioSpec(), model, engine)
        row = _pcons_row("class-3", (7, 1, 1), engine)
        assert row["status"] == "inapplicable"
        assert "f = 0" in row["error"]


@pytest.mark.parametrize("engine", PCONS_ENGINES)
def test_refuses_prel_only_delivery(engine):
    with pytest.raises(ScenarioInapplicable, match="Prel"):
        compile_scenario(
            ScenarioSpec(comm=CommSpec(kind="async-prel")), FaultModel(4, 1, 0),
            engine,
        )


def _stack_signature(outcome, scheduler):
    return {
        "decisions": {
            str(pid): [repr(d.value), d.round, d.phase]
            for pid, d in sorted(outcome.decisions.items())
        },
        "pcons": [[phase, bool(held)] for phase, held in scheduler.pcons_observations],
        "micro": scheduler.micro_rounds,
        "logical": outcome.rounds_executed,
        "sent": scheduler.micro_messages,
    }


def test_differential_pin_against_the_hand_rolled_loop():
    """96 configurations, digest recorded at the last commit whose stack was
    its own assembly + round loop beside the kernel: decisions (value, round,
    phase), Pcons observations, micro/logical rounds and message counts."""
    schedules = {
        "after": lambda: GoodBadSchedule.good_after(8),
        "alternating": lambda: GoodBadSchedule.alternating(5, 2),
    }
    digest = hashlib.sha256()
    grid = itertools.product(
        [(build_pbft, 4), (build_mqb, 5)],
        [AuthenticatedCoordinatorEcho, SignatureFreeCoordinatorEcho],
        list(WicAdversaryMode),
        ["first", "last"],
        ["equivocator", "adaptive-liar"],
        sorted(schedules),
    )
    count = 0
    for (builder, n), wic_cls, mode, position, strategy, schedule in grid:
        spec = builder(n)
        model = spec.parameters.model
        liar = 0 if position == "first" else model.n - 1
        outcome, scheduler = run_direct(
            spec.parameters,
            {pid: f"v{pid % 2}" for pid in model.processes if pid != liar},
            wic_cls(model, adversary_mode=mode),
            config=spec.config,
            byzantine={liar: strategy},
            good_bad=(
                schedules[schedule](),
                random_drop_behavior(random.Random(4), 0.7),
            ),
            max_phases=10,
        )
        digest.update(
            json.dumps(_stack_signature(outcome, scheduler), sort_keys=True).encode()
        )
        count += 1
    assert count == 96
    assert digest.hexdigest() == STACK_PIN


def test_one_scheduler_reused_for_two_runs():
    """The kernel resets a scheduler it binds: clock, counters and
    observations all start over."""
    spec = build_pbft(4)
    model = spec.parameters.model
    scheduler = PconsStackScheduler(
        SignatureFreeCoordinatorEcho(model),
        (GoodBadSchedule.good_after(8), silent_behavior()),
    )

    def run():
        outcome = run_instance(
            build_instance(
                spec.parameters, values_for(model), byzantine={3: "equivocator"}
            ),
            scheduler,
            max_phases=12,
            observe="metrics",
        )
        return (
            {pid: (d.value, d.round) for pid, d in outcome.decisions.items()},
            outcome.rounds_executed,
            outcome.messages_dropped,
            scheduler.micro_rounds,
            scheduler.micro_messages,
            list(scheduler.pcons_observations),
        )

    first = run()
    assert first == run()
    assert first[2] > 0 and first[3] > 5  # bad micro-rounds really dropped
