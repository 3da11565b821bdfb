"""One communication table: a comm kind is one ``(schedule, edge rule)`` pair.

* ``reliable``, ``lossy`` and ``silent`` are points of ``good-bad`` — at a
  fixed explicit seed each runs exactly like its normal form, on both
  engines;
* the pair compiles once and both schedulers apply it — in a bad round
  whose every latency meets the deadline, the lockstep matrix and the timed
  matrix hold the same edges and report the same ``dropped``.
"""

import pytest

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel, RoundInfo, RoundKind
from repro.eventsim.network import NetworkSpec
from repro.rounds.base import RunContext
from repro.scenarios import ScenarioSpec, compile_scenario, run_scenario
from repro.scenarios.spec import CommSpec

MODEL = FaultModel(9, 1, 1)


def signature(outcome):
    return (
        {pid: (d.value, d.round, d.phase) for pid, d in outcome.decisions.items()},
        outcome.rounds_executed,
        outcome.messages_sent,
        outcome.messages_delivered,
        outcome.messages_dropped,
    )


@pytest.mark.parametrize("engine", ["lockstep", "timed"])
@pytest.mark.parametrize(
    "kind,normal_form",
    [
        (
            CommSpec(kind="lossy", drop_prob=0.3),
            CommSpec(kind="good-bad", schedule="never", bad="drop", drop_prob=0.3),
        ),
        (
            CommSpec(kind="silent"),
            CommSpec(kind="good-bad", schedule="never", bad="silence"),
        ),
        (CommSpec(), CommSpec(kind="good-bad", schedule="always")),
    ],
    ids=["lossy", "silent", "reliable"],
)
def test_kind_runs_like_its_normal_form(engine, kind, normal_form):
    parameters = build_class_parameters(AlgorithmClass.CLASS_2, MODEL)
    outcomes = [
        run_scenario(
            ScenarioSpec(byzantine=("adaptive-liar",), comm=comm),
            parameters,
            engine=engine,
            rng=5,
            observe="metrics",
            max_phases=8,
        )
        for comm in (kind, normal_form)
    ]
    assert kind.regime() == normal_form.regime()
    assert signature(outcomes[0]) == signature(outcomes[1])
    assert outcomes[0].messages_sent > 0


@pytest.mark.parametrize(
    "comm",
    [
        CommSpec(kind="good-bad", good_from=3, bad="partition"),
        CommSpec(
            kind="good-bad", good_from=3, bad="partition",
            groups=((0, 2, 4, 6, 8), (1, 3, 5)),
        ),
        CommSpec(kind="good-bad", good_from=3, bad="silence"),
    ],
    ids=["partition-halves", "partition-groups", "silence"],
)
def test_one_rule_two_schedulers(comm):
    spec = ScenarioSpec(
        byzantine=("silent",),
        comm=comm,
        # Every transit is 1.0 ≤ Δ: only the rule withholds.
        timing=NetworkSpec(kind="fixed", low=1.0),
    )
    bad_round = RoundInfo(1, 1, RoundKind.DECISION)
    outbound = {
        s: {d: (s, d) for d in MODEL.processes} for s in MODEL.processes
    }
    deliveries = []
    for engine in ("lockstep", "timed"):
        compiled = compile_scenario(spec, MODEL, engine, 7)
        compiled.scheduler.reset()
        deliveries.append(
            compiled.scheduler.deliver_round(
                bad_round,
                outbound,
                RunContext(MODEL, byzantine=frozenset(compiled.byzantine)),
            )
        )
    lockstep, timed = deliveries
    assert lockstep.matrix == timed.matrix
    assert lockstep.dropped == timed.dropped > 0
    # Byzantine process 8 hears everyone, whichever side it is on.
    assert set(timed.matrix[8]) == set(MODEL.processes)
