"""Kernel observation modes: metrics parity with full, trace-free hot path."""

import pytest

from repro.algorithms import build_mqb, build_one_third_rule, build_pbft
from repro.analysis.metrics import RunMetrics
from repro.engine.assembly import build_instance
from repro.engine.kernel import (
    OBSERVE_FULL,
    OBSERVE_METRICS,
    ExecutionKernel,
    run_instance,
)
from repro.engine.scheduler import LockstepScheduler, TimedScheduler
from repro.eventsim.network import PartialSynchronyNetwork, UniformLatency
from repro.faults.crash import CrashEvent, CrashSchedule


def sync_network(seed=7):
    return PartialSynchronyNetwork(
        UniformLatency(0.5, 2.0), gst=0.0, delta=2.0, seed=seed
    )


def run_cell(spec, *, byzantine=None, engine="lockstep", observe=OBSERVE_FULL,
             crash_schedule=None, seed=7):
    model = spec.parameters.model
    byzantine = byzantine or {}
    values = {
        pid: f"v{pid % 2}" for pid in model.processes if pid not in byzantine
    }
    instance = build_instance(
        spec.parameters, values, config=spec.config, byzantine=byzantine
    )
    if engine == "lockstep":
        scheduler = LockstepScheduler()
    else:
        scheduler = TimedScheduler(sync_network(seed), round_duration=2.5)
    return run_instance(
        instance,
        scheduler,
        max_phases=12,
        observe=observe,
        crash_schedule=crash_schedule,
    )


CELLS = [
    (build_pbft(4), {3: "equivocator"}),
    (build_pbft(4), {}),
    (build_mqb(5), {4: "vote-flipper"}),
    (build_one_third_rule(4), {}),
]


class TestMetricsParity:
    @pytest.mark.parametrize("spec,byz", CELLS)
    @pytest.mark.parametrize("engine", ["lockstep", "timed"])
    def test_same_decisions_and_counters_as_full(self, spec, byz, engine):
        full = run_cell(spec, byzantine=byz, engine=engine, observe=OBSERVE_FULL)
        fast = run_cell(spec, byzantine=byz, engine=engine, observe=OBSERVE_METRICS)
        assert fast.decisions == full.decisions
        assert fast.decision_times == full.decision_times
        assert fast.rounds_executed == full.rounds_executed
        assert fast.messages_sent == full.messages_sent
        assert fast.messages_delivered == full.messages_delivered
        assert fast.messages_dropped == full.messages_dropped
        assert fast.simulated_time == full.simulated_time
        assert dict(fast.invariant_report()) == dict(full.invariant_report())
        assert fast.phases_to_last_decision == full.phases_to_last_decision

    def test_metrics_mode_allocates_no_trace(self):
        outcome = run_cell(build_pbft(4), observe=OBSERVE_METRICS)
        assert outcome.trace is None
        assert outcome.observe == OBSERVE_METRICS

    def test_full_mode_records_trace_and_snapshots(self):
        outcome = run_cell(build_pbft(4), observe=OBSERVE_FULL)
        assert outcome.trace is not None
        assert outcome.trace.rounds_executed == outcome.rounds_executed
        # Full observation records per-round snapshot dicts by default.
        assert any(record.snapshots for record in outcome.trace.records)

    def test_run_metrics_agree_across_observation_modes(self):
        full = run_cell(build_pbft(4), observe=OBSERVE_FULL)
        fast = run_cell(build_pbft(4), observe=OBSERVE_METRICS)
        assert RunMetrics.from_outcome(fast) == RunMetrics.from_outcome(full)

    def test_unknown_observe_mode_rejected(self):
        spec = build_pbft(4)
        instance = build_instance(
            spec.parameters, {pid: "v" for pid in range(4)}
        )
        with pytest.raises(ValueError, match="observe"):
            ExecutionKernel(
                spec.parameters.model,
                instance.processes,
                LockstepScheduler(),
                instance.structure.info,
                context=instance.context,
                observe="everything",
            )


class TestTimedFullObservation:
    def test_timed_full_run_reports_trace_and_invariants(self):
        spec = build_pbft(4)
        outcome = run_instance(
            build_instance(
                spec.parameters,
                {0: "a", 1: "b", 2: "a"},
                byzantine={3: "equivocator"},
            ),
            TimedScheduler(sync_network(), round_duration=2.5),
            observe=OBSERVE_FULL,
        )
        assert outcome.trace is not None
        assert outcome.trace.rounds_executed == outcome.rounds_executed
        # Under synchrony from the start every round is good.
        assert all(record.pgood for record in outcome.trace.records)
        report = dict(outcome.invariant_report())
        assert report == {
            "agreement": True,
            "validity": True,
            "unanimity": True,
            "termination": True,
        }

    def test_timed_scheduler_is_safe_to_reuse_across_runs(self):
        """Binding a kernel resets the scheduler's clock and queue."""
        spec = build_pbft(4)
        scheduler = TimedScheduler(sync_network(), round_duration=2.5)
        values = {pid: "v" for pid in range(4)}

        def run_once():
            instance = build_instance(spec.parameters, values)
            return run_instance(instance, scheduler, max_phases=12)

        first = run_once()
        second = run_once()
        assert first.decision_times == second.decision_times
        assert second.simulated_time == first.simulated_time

    def test_timed_runs_accept_a_crash_schedule(self):
        spec = build_one_third_rule(4)
        model = spec.parameters.model
        schedule = CrashSchedule(model, [CrashEvent(0, 1)])
        outcome = run_cell(
            spec, engine="timed", observe=OBSERVE_FULL, crash_schedule=schedule
        )
        assert 0 in outcome.context.crashed
        assert 0 not in outcome.decisions
        assert outcome.agreement_holds
        # The surviving correct processes still decide.
        assert outcome.all_correct_decided
