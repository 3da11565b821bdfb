"""Timed kernel runs: decision latency under partial synchrony."""

from dataclasses import replace

import pytest

from repro.algorithms import build_fab_paxos, build_paxos, build_pbft
from repro.engine import TimedScheduler, build_instance, run_instance
from repro.eventsim.network import (
    FixedLatency,
    PartialSynchronyNetwork,
    UniformLatency,
)


def synchronous_net(seed=0):
    return PartialSynchronyNetwork(UniformLatency(0.5, 2.0), gst=0.0, delta=2.0, seed=seed)


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
            TimedScheduler(synchronous_net(), round_duration=2.5),
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
                TimedScheduler(network, round_duration=2.5),
                observe="metrics",
            )

        early = run(
            PartialSynchronyNetwork(
                FixedLatency(1.0), gst=0.0, delta=2.0, seed=3
            )
        )
        late = run(
            PartialSynchronyNetwork(
                FixedLatency(1.0),
                gst=20.0,
                delta=2.0,
                pre_gst_delay_prob=0.9,
                seed=3,
            )
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
                PartialSynchronyNetwork(
                    UniformLatency(0.5, 2.0),
                    gst=10**9,  # never stabilizes within the run
                    pre_gst_delay_prob=0.7,
                    seed=5,
                )
            ),
            max_phases=8,
            observe="metrics",
        )
        assert outcome.messages_dropped > 0  # where lockstep and timed part
        assert outcome.agreement_holds  # may or may not decide

    @pytest.mark.parametrize(
        "kwargs,says",
        [
            ({"delta": float("nan")}, "delta must be positive, got nan"),
            ({"gst": float("nan")}, "gst must be a number, got nan"),
        ],
        ids=["delta", "gst"],
    )
    def test_nan_delta_or_gst_rejected(self, kwargs, says):
        with pytest.raises(ValueError) as excinfo:
            PartialSynchronyNetwork(FixedLatency(1.0), **kwargs)
        assert str(excinfo.value) == says


class TestSeedThreading:
    def _run(self, seed):
        spec = build_pbft(4)
        network = PartialSynchronyNetwork(
            UniformLatency(0.5, 2.0),
            gst=12.0,
            pre_gst_delay_prob=0.7,
            seed=999,  # overridden by the explicit per-run reseed
        )
        network.reseed(seed)
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

    def test_reseed_overrides_network_state(self):
        """Distinct seeds give distinct RNG streams despite equal networks."""
        outcomes = {self._run(seed).messages_dropped for seed in range(6)}
        assert len(outcomes) > 1

    def test_rng_injection(self):
        import random

        network = PartialSynchronyNetwork(
            UniformLatency(0.5, 2.0), rng=random.Random(7)
        )
        reference = PartialSynchronyNetwork(UniformLatency(0.5, 2.0), seed=7)
        samples = [network.transit_time(0.0, 0, 1) for _ in range(5)]
        expected = [reference.transit_time(0.0, 0, 1) for _ in range(5)]
        assert samples == expected


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
        TimedScheduler(
            PartialSynchronyNetwork(
                UniformLatency(0.5, 2.0),
                gst=20.0,
                pre_gst_delay_prob=0.8,
                seed=13,
            )
        ),
        max_phases=20,
        observe="metrics",
    )
    assert outcome.messages_dropped > 0
    assert (
        outcome.messages_delivered + outcome.messages_dropped
        == outcome.messages_sent
    )
