"""Scenario compilation onto both schedulers."""

import pytest

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel, RoundInfo, RoundKind
from repro.engine.scheduler import LockstepScheduler, TimedScheduler
from repro.eventsim.network import NetworkSpec
from repro.rounds.base import RunContext
from repro.scenarios import (
    ScenarioInapplicable,
    ScenarioSpec,
    SCENARIO_REGISTRY,
    compile_scenario,
    get_scenario,
    run_scenario,
)
from repro.scenarios.spec import CommSpec


@pytest.fixture
def pbft_params(pbft_model):
    return build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)


ALL = {(s, d) for s in range(4) for d in range(4)}
#: Process 3 is Byzantine: every kind delivers everything addressed to it.
TO_BYZ = {(s, 3) for s in range(4)}
HALVES = {(s, d) for s, d in ALL if (s < 2) == (d < 2)}


def all_to_all():
    return {s: {d: f"m{s}" for d in range(4)} for s in range(4)}


class TestLockstepTargets:
    @pytest.mark.parametrize(
        "comm,round_number,expected",
        [
            (CommSpec(), 1, ALL),
            (CommSpec(kind="good-bad", good_from=5, drop_prob=1.0), 4, TO_BYZ),
            (CommSpec(kind="good-bad", good_from=5, drop_prob=1.0), 5, ALL),
            (
                CommSpec(kind="good-bad", schedule="never", bad="partition"),
                1,
                HALVES | TO_BYZ,
            ),
            (CommSpec(kind="lossy", drop_prob=1.0), 1, TO_BYZ),
            (CommSpec(kind="silent"), 1, TO_BYZ),
        ],
    )
    def test_comm_kind_delivered_edges(
        self, pbft_model, comm, round_number, expected
    ):
        compiled = compile_scenario(
            ScenarioSpec(byzantine=("silent",), comm=comm),
            pbft_model,
            "lockstep",
            1,
        )
        assert isinstance(compiled.scheduler, LockstepScheduler)
        delivery = compiled.scheduler.deliver_round(
            RoundInfo(round_number, 1, RoundKind.DECISION),
            all_to_all(),
            RunContext(pbft_model, byzantine=frozenset(compiled.byzantine)),
        )
        delivered = {
            (s, d) for d, inbox in delivery.matrix.items() for s in inbox
        }
        assert delivered == expected
        assert delivery.dropped == len(ALL - expected)

    def test_async_prel_keeps_a_quorum_per_receiver(self, pbft_model):
        compiled = compile_scenario(
            ScenarioSpec(comm=CommSpec(kind="async-prel")),
            pbft_model,
            "lockstep",
            1,
        )
        delivery = compiled.scheduler.deliver_round(
            RoundInfo(1, 1, RoundKind.DECISION),
            all_to_all(),
            RunContext(pbft_model),
        )
        # n − b − f = 3 of the 4 messages addressed to each receiver.
        assert [len(delivery.matrix[d]) for d in range(4)] == [3] * 4

    def test_byzantine_and_crashes_resolved(self):
        model = FaultModel(7, 1, 2)
        spec = ScenarioSpec(byzantine=("silent",), crashes=2, crash_round=3)
        compiled = compile_scenario(spec, model, "lockstep", 1)
        assert compiled.byzantine == {6: "silent"}
        assert compiled.crash_schedule.doomed == frozenset({0, 1})


class TestTimedTargets:
    def test_reliable_has_no_filter(self, pbft_model):
        compiled = compile_scenario(
            ScenarioSpec(), pbft_model, "timed", 1
        )
        assert isinstance(compiled.scheduler, TimedScheduler)

    def test_partition_hosted_on_timed(self, pbft_model, pbft_params):
        spec = get_scenario("partition_heal")
        outcome = run_scenario(spec, pbft_params, engine="timed", rng=3)
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        # Decisions cannot land before the heal round.
        assert outcome.rounds_to_last_decision >= spec.comm.good_from

    def test_crash_script_hosted_on_timed(self):
        model = FaultModel(5, 0, 2)
        params = build_class_parameters(AlgorithmClass.CLASS_2, model)
        outcome = run_scenario("crash_storm", params, engine="timed", rng=3)
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert len(outcome.decisions) == 3  # the two crashed never decide

    def test_async_prel_inapplicable_on_timed(self, pbft_model):
        with pytest.raises(ScenarioInapplicable, match="lockstep engine only"):
            compile_scenario(
                ScenarioSpec(comm=CommSpec(kind="async-prel")),
                pbft_model,
                "timed",
                1,
            )


@pytest.mark.parametrize(
    "comm",
    [
        CommSpec(kind="good-bad", good_from=3, bad="partition"),
        CommSpec(kind="good-bad", good_from=3, bad="partition",
                 groups=((0, 2, 4, 6, 8), (1, 3, 5))),
        CommSpec(kind="good-bad", good_from=3, bad="silence"),
    ],
    ids=["partition-halves", "partition-groups", "silence"],
)
def test_one_rule_two_schedulers(comm):
    """A bad round whose every transit (1.0 ≤ Δ) meets the deadline: the
    lockstep and the timed matrix hold the edges the compiled rule keeps."""
    model = FaultModel(9, 1, 1)
    spec = ScenarioSpec(byzantine=("silent",), comm=comm,
                        timing=NetworkSpec(kind="fixed", low=1.0))
    outbound = {s: {d: (s, d) for d in model.processes} for s in model.processes}
    deliveries = []
    for engine in ("lockstep", "timed"):
        compiled = compile_scenario(spec, model, engine, 7)
        compiled.scheduler.reset()
        deliveries.append(compiled.scheduler.deliver_round(
            RoundInfo(1, 1, RoundKind.DECISION), outbound,
            RunContext(model, byzantine=frozenset(compiled.byzantine)),
        ))
    lockstep, timed = deliveries
    assert lockstep.matrix == timed.matrix
    assert lockstep.dropped == timed.dropped > 0
    # Byzantine process 8 hears everyone, whichever side it is on.
    assert set(timed.matrix[8]) == set(model.processes)


class TestInapplicability:
    def test_byzantine_needs_b(self):
        with pytest.raises(ScenarioInapplicable, match="b = 0"):
            compile_scenario(
                ScenarioSpec(byzantine=("silent",)), FaultModel(3, 0, 1)
            )

    def test_crashes_bounded_by_f(self):
        with pytest.raises(ScenarioInapplicable, match="crashes 2 > f = 1"):
            compile_scenario(
                ScenarioSpec(crashes=2), FaultModel(3, 0, 1)
            )

    def test_byzantine_count_bounded_by_b(self):
        with pytest.raises(ScenarioInapplicable, match="Byzantine"):
            compile_scenario(
                ScenarioSpec(byzantine=("silent",), byzantine_count=2),
                FaultModel(4, 1, 0),
            )

    def test_unknown_engine_is_value_error(self, pbft_model):
        with pytest.raises(ValueError, match="unknown engine"):
            compile_scenario(ScenarioSpec(), pbft_model, "warp")


class TestDeterminism:
    @pytest.mark.parametrize("engine", ["lockstep", "timed"])
    @pytest.mark.parametrize("name", sorted(SCENARIO_REGISTRY))
    def test_same_seed_same_outcome(self, engine, name, pbft_params):
        # (crash_storm degrades to zero crashes on the f = 0 pbft model.)
        first = run_scenario(name, pbft_params, engine=engine, rng=11)
        second = run_scenario(name, pbft_params, engine=engine, rng=11)
        assert first.decided_value_by_process == second.decided_value_by_process
        assert first.rounds_executed == second.rounds_executed
        assert first.messages_delivered == second.messages_delivered

    def test_seed_moves_random_loss(self, pbft_params):
        outcomes = {
            run_scenario(
                "async_then_sync", pbft_params, rng=seed
            ).messages_delivered
            for seed in range(6)
        }
        assert len(outcomes) > 1


class TestMemoization:
    def test_schedule_lookups_memoized(self):
        calls = []

        # A good_from no other test (or fuzzed candidate) uses: the
        # schedule memo is process-wide, so a shared spec would arrive
        # here with its round cache already warm.
        comm = CommSpec(kind="good-bad", schedule="after", good_from=41)
        from repro.scenarios.compile import _memoized_schedule

        schedule = _memoized_schedule(comm)
        # Instrument the base predicate through the memo: repeated lookups
        # of one round must not grow the underlying closure's cache.
        memo = schedule._is_good.__closure__
        assert memo is not None
        for _ in range(3):
            calls.append(schedule.is_good(2))
        assert calls == [False, False, False]
        (memo_dict,) = [
            cell.cell_contents
            for cell in memo
            if isinstance(cell.cell_contents, dict)
        ]
        assert set(memo_dict) == {2}

    def test_partition_rule_memoized_per_groups(self, pbft_model):
        from repro.scenarios.compile import _bad_rule, _partition_rule

        rule = _partition_rule(((0, 1), (2, 3)))
        assert rule(0, 1) and rule(1, 0) and rule(2, 2)
        assert not rule(0, 2) and not rule(2, 1)
        # The halves of n = 4 are those groups: every run of every such
        # cell shares the one stateless rule (and its edge set).
        comm = CommSpec(kind="good-bad", bad="partition", good_from=3)
        assert _bad_rule(comm, pbft_model, None) is rule
        assert _partition_rule(((0, 1), (2, 3))) is rule
