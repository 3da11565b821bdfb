"""The full stack: consensus over implemented Pcons."""

import hashlib
import itertools
import json

import pytest

from repro.algorithms import build_fab_paxos, build_mqb, build_pbft
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.selector import RotatingSubsetSelector
from repro.core.types import FaultModel
from repro.engine import build_instance, run_instance
from repro.faults import STRATEGY_REGISTRY
from repro.network.stack import PconsStackScheduler, run_with_pcons_stack
from repro.network.wic import (
    AuthenticatedCoordinatorEcho,
    SignatureFreeCoordinatorEcho,
    WicAdversaryMode,
)
from repro.rounds.schedule import GoodBadSchedule

#: SHA-256 of the reduced differential grid below, recorded at e19de90.
STACK_PIN = "58a5ea0182c64a8c3cedf503453068dfd00385caa422af6f8706065e2a3c6a87"


def values_for(model):
    return {
        pid: f"v{pid % 2}" for pid in model.processes if pid != model.n - 1
    }


@pytest.mark.parametrize("builder,n", [(build_pbft, 4), (build_mqb, 5), (build_fab_paxos, 6)])
@pytest.mark.parametrize(
    "wic_cls", [AuthenticatedCoordinatorEcho, SignatureFreeCoordinatorEcho]
)
def test_algorithms_decide_over_implemented_pcons(builder, n, wic_cls):
    spec = builder(n)
    model = spec.parameters.model
    outcome = run_with_pcons_stack(
        spec.parameters,
        values_for(model),
        wic_cls(model),
        byzantine={model.n - 1: "equivocator"},
    )
    assert outcome.agreement_holds
    assert outcome.all_correct_decided
    assert outcome.pcons_held_in_phase(1)


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
    outcome = run_with_pcons_stack(
        parameters,
        values,
        wic_cls(parameters.model),
        byzantine={position: strategy},
    )
    assert outcome.agreement_holds


def test_round_cost_difference():
    """Authenticated Pcons: 2 micro-rounds; signature-free: 3 (Section 2.2)."""
    spec = build_pbft(4)
    model = spec.parameters.model
    values = {pid: f"v{pid % 2}" for pid in model.processes}
    auth = run_with_pcons_stack(
        spec.parameters, values, AuthenticatedCoordinatorEcho(model)
    )
    free = run_with_pcons_stack(
        spec.parameters, values, SignatureFreeCoordinatorEcho(model)
    )
    assert auth.micro_rounds_used == 4  # 2 (Pcons) + validation + decision
    assert free.micro_rounds_used == 5  # 3 (Pcons) + validation + decision


def test_byzantine_coordinator_phase_recovers_later():
    """With the Byzantine process as phase-1 coordinator, Pcons may fail in
    phase 1 but the rotation reaches a correct coordinator and decides."""
    spec = build_pbft(4)
    model = spec.parameters.model
    values = {pid: f"v{pid % 2}" for pid in (1, 2, 3)}
    outcome = run_with_pcons_stack(
        spec.parameters,
        values,
        SignatureFreeCoordinatorEcho(model),
        byzantine={0: "equivocator"},  # process 0 coordinates phase 1
        max_phases=6,
    )
    assert outcome.agreement_holds
    assert outcome.all_correct_decided


def test_bad_periods_delay_but_do_not_break():
    spec = build_pbft(4)
    model = spec.parameters.model
    outcome = run_with_pcons_stack(
        spec.parameters,
        values_for(model),
        SignatureFreeCoordinatorEcho(model),
        byzantine={3: "equivocator"},
        schedule=GoodBadSchedule.good_after(8),
        seed=4,
        max_phases=12,
    )
    assert outcome.agreement_holds
    assert outcome.all_correct_decided
    assert outcome.micro_rounds_used > 5  # needed more than one clean phase


def test_requires_pi_selector():
    model = FaultModel(9, 1, 0)
    params = build_class_parameters(
        AlgorithmClass.CLASS_2, model, selector=RotatingSubsetSelector(model)
    )
    with pytest.raises(ValueError, match="all-processes"):
        run_with_pcons_stack(
            params,
            {pid: "v" for pid in model.processes},
            AuthenticatedCoordinatorEcho(model),
        )


def test_requires_f_zero():
    model = FaultModel(7, 1, 1)
    params = build_class_parameters(AlgorithmClass.CLASS_3, model)
    with pytest.raises(ValueError, match="f = 0"):
        run_with_pcons_stack(
            params,
            {pid: "v" for pid in model.processes},
            AuthenticatedCoordinatorEcho(model),
        )


def _stack_signature(outcome):
    return {
        "decisions": {
            str(pid): [repr(d.value), d.round, d.phase]
            for pid, d in sorted(outcome.decisions.items())
        },
        "pcons": [[phase, bool(held)] for phase, held in outcome.pcons_observations],
        "micro": outcome.micro_rounds_used,
        "logical": outcome.logical_rounds_used,
        "sent": outcome.messages_sent,
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
        outcome = run_with_pcons_stack(
            spec.parameters,
            {pid: f"v{pid % 2}" for pid in model.processes if pid != liar},
            wic_cls(model, adversary_mode=mode),
            config=spec.config,
            byzantine={liar: strategy},
            schedule=schedules[schedule](),
            seed=4,
            max_phases=10,
        )
        digest.update(
            json.dumps(_stack_signature(outcome), sort_keys=True).encode()
        )
        count += 1
    assert count == 96
    assert digest.hexdigest() == STACK_PIN


def test_one_scheduler_reused_for_two_runs():
    """The kernel resets a scheduler it binds: clock, counters, observations
    and the loss stream all start over."""
    spec = build_pbft(4)
    model = spec.parameters.model
    scheduler = PconsStackScheduler(
        SignatureFreeCoordinatorEcho(model),
        GoodBadSchedule.good_after(8),
        seed=4,
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
