"""Timed kernel runs: decision latency under partial synchrony."""

from dataclasses import replace

import pytest

from repro.algorithms import build_fab_paxos, build_paxos, build_pbft
from repro.engine import TimedScheduler, build_instance, run_instance
from repro.eventsim.network import NetworkSpec


def synchronous_net(seed=0):
    return NetworkSpec().build(seed)


def uniform_run(spec, n):
    """Everyone proposes ``"v"`` under a synchronous network."""
    return run_instance(
        build_instance(spec.parameters, {pid: "v" for pid in range(n)}),
        TimedScheduler(synchronous_net()),
        observe="metrics",
    )


class TestSynchronousRuns:
    def test_pbft_decides_in_one_phase(self):
        spec = build_pbft(4)
        outcome = run_instance(
            build_instance(
                spec.parameters,
                {0: "a", 1: "b", 2: "a"},
                byzantine={3: "equivocator"},
            ),
            TimedScheduler(synchronous_net()),
            observe="metrics",
        )
        assert outcome.trace is None
        assert outcome.agreement_holds
        assert outcome.rounds_executed == 3
        assert outcome.last_decision_time == pytest.approx(7.5)
        # The Byzantine process never needs to decide.
        assert 3 not in outcome.decisions and outcome.all_correct_decided

    def test_fab_is_faster_per_phase_than_pbft(self):
        """Class 1's 2-round phases beat class 3's 3-round phases in time."""
        fab_out = uniform_run(build_fab_paxos(6), 6)
        pbft_out = uniform_run(build_pbft(4), 4)
        assert fab_out.last_decision_time < pbft_out.last_decision_time

    def test_message_accounting(self):
        outcome = uniform_run(build_pbft(4), 4)
        assert outcome.messages_sent >= outcome.messages_delivered > 0


class TestPartialSynchrony:
    def test_gst_delays_decision(self):
        spec = build_paxos(3)

        def run(network):
            return run_instance(
                build_instance(spec.parameters, {0: "a", 1: "b", 2: "c"}),
                TimedScheduler(network),
                observe="metrics",
            )

        early = run(NetworkSpec(kind="fixed", low=1.0).build(3))
        late = run(
            NetworkSpec(
                kind="fixed", low=1.0, gst=20.0, pre_gst_delay_prob=0.9
            ).build(3)
        )
        assert early.agreement_holds and late.agreement_holds
        assert early.all_correct_decided and late.all_correct_decided
        assert late.last_decision_time > early.last_decision_time

    def test_safety_before_gst(self):
        spec = build_pbft(4)
        outcome = run_instance(
            build_instance(
                spec.parameters,
                {0: "a", 1: "b", 2: "a"},
                byzantine={3: "equivocator"},
            ),
            TimedScheduler(
                NetworkSpec(
                    gst=10**9,  # never stabilizes within the run
                    pre_gst_delay_prob=0.7,
                ).build(5)
            ),
            max_phases=8,
            observe="metrics",
        )
        assert outcome.messages_dropped > 0  # where lockstep and timed part
        assert outcome.agreement_holds  # may or may not decide


class TestSeedThreading:
    def _run(self, seed):
        spec = build_pbft(4)
        network = NetworkSpec(gst=12.0, pre_gst_delay_prob=0.7).build(seed)
        return run_instance(
            build_instance(
                spec.parameters,
                {0: "a", 1: "b", 2: "a"},
                byzantine={3: "equivocator"},
            ),
            TimedScheduler(network),
            max_phases=20,
            observe="metrics",
        )

    def test_same_seed_reproduces(self):
        first, second = self._run(42), self._run(42)
        assert first.last_decision_time == second.last_decision_time
        assert first.messages_delivered == second.messages_delivered
        assert first.messages_dropped == second.messages_dropped

    def test_distinct_seeds_give_distinct_streams(self):
        """Equal specs built with distinct seeds draw distinct streams."""
        outcomes = {self._run(seed).messages_dropped for seed in range(6)}
        assert len(outcomes) > 1


class TestAllCorrectDecided:
    """Regression: the timed termination flag once meant *any* process
    decided.  The kernel judges it over ``Outcome.correct`` (honest and
    never crashing), the set its early stop waits for."""

    def test_full_run_reports_all_correct_decided(self):
        outcome = uniform_run(build_pbft(4), 4)
        assert outcome.all_correct_decided
        assert set(outcome.decision_times) == {0, 1, 2, 3}

    def test_partial_decision_is_not_all_correct_decided(self):
        full = uniform_run(build_pbft(4), 4)
        # One decider out of correct {0, 1, 2, 3}.
        partial = replace(full, decisions={0: full.decisions[0]})
        assert partial.decisions and not partial.all_correct_decided


def test_dropped_messages_are_counted():
    """Pre-GST chaos pushes messages past their deadline: all accounted."""
    spec = build_pbft(4)
    outcome = run_instance(
        build_instance(
            spec.parameters, {pid: f"v{pid % 2}" for pid in range(4)}
        ),
        TimedScheduler(NetworkSpec(gst=20.0, pre_gst_delay_prob=0.8).build(13)),
        max_phases=20,
        observe="metrics",
    )
    assert outcome.messages_dropped > 0
    assert (
        outcome.messages_delivered + outcome.messages_dropped
        == outcome.messages_sent
    )
