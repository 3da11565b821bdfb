"""Kernel observation modes: metrics parity with full, trace-free hot path;
and the round lifetime of delivered messages."""

import gc
import weakref

import pytest

from repro.algorithms import (
    build_mqb,
    build_one_third_rule,
    build_paxos,
    build_pbft,
)
from repro.core.types import (
    _PAYLOAD_CACHES,
    DecisionMessage,
    SelectionMessage,
    ValidationMessage,
    clear_payload_caches,
)
from repro.engine import kernel as kernel_module
from repro.engine.cell import admit
from repro.engine.assembly import build_instance
from repro.engine.kernel import (
    OBSERVE_FULL,
    OBSERVE_METRICS,
    ExecutionKernel,
    run_instance,
)
from repro.engine.scheduler import LockstepScheduler, TimedScheduler
from repro.eventsim.network import NetworkSpec
from repro.faults.crash import CrashEvent, CrashSchedule
from repro.observability import Telemetry


def sync_network(seed=7):
    return NetworkSpec().build(seed)


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
        scheduler = TimedScheduler(sync_network(seed))
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
    (build_pbft(4), {3: "silent"}),
    (build_paxos(3), {}),
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
        for name in ("rounds_executed", "rounds_to_last_decision", "phases_to_last_decision",
                     "messages_sent", "messages_delivered", "decisions"):
            assert getattr(fast, name) == getattr(full, name), name
        histories = [[len(p.state.history) for p in outcome.honest_processes.values()]
                     for outcome in (fast, full)]
        assert histories[0] == histories[1]

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
            TimedScheduler(sync_network()),
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
        scheduler = TimedScheduler(sync_network())
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


MESSAGE_TYPES = (SelectionMessage, ValidationMessage, DecisionMessage)


def delivered_refs_after_step(telemetry=None):
    """Step one pbft round; weak references to every message it delivered."""
    spec = build_pbft(4)
    values = {pid: f"v{pid % 2}" for pid in range(4)}
    instance = build_instance(spec.parameters, values)
    scheduler = LockstepScheduler()
    refs = []
    deliver_round = scheduler.deliver_round

    def spy(info, outbound, context):
        delivery = deliver_round(info, outbound, context)
        refs.extend(
            weakref.ref(payload)
            for row in delivery.matrix.values()
            for payload in row.values()
            if type(payload) in MESSAGE_TYPES
        )
        return delivery

    scheduler.deliver_round = spy
    kernel = ExecutionKernel(
        spec.parameters.model,
        instance.processes,
        scheduler,
        instance.structure.info,
        context=instance.context,
        observe=OBSERVE_METRICS,
        telemetry=telemetry,
    )
    kernel.step()
    gc.collect()
    assert refs, "the round must deliver protocol messages"
    return kernel, refs


class TestRoundLifetime:
    """A message sent in round r is read in round r and never again, so the
    payload validators' caches hold nothing once the round has run."""

    @pytest.mark.parametrize("instrumented", [False, True], ids=["plain", "telemetry"])
    def test_delivered_payload_is_unreachable_after_its_round(self, instrumented):
        kernel, refs = delivered_refs_after_step(Telemetry() if instrumented else None)
        assert all(ref() is None for ref in refs)
        assert not any(_PAYLOAD_CACHES)
        assert kernel.rounds_executed == 1

    def test_negative_control_without_the_round_end_clear(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "clear_payload_caches", lambda: None)
        try:
            _kernel, refs = delivered_refs_after_step()
            assert any(ref() is not None for ref in refs)
            assert any(_PAYLOAD_CACHES)
        finally:
            clear_payload_caches()

    def test_caches_are_empty_after_run_instance(self):
        outcome = run_cell(build_pbft(4), byzantine={3: "equivocator"},
                           observe=OBSERVE_METRICS)
        assert outcome.decisions
        assert not any(_PAYLOAD_CACHES)

    def test_replayed_rejection_keeps_no_caller_frame_alive(self):
        class Marker:
            pass

        refs = []

        def caller():
            marker = Marker()
            refs.append(weakref.ref(marker))
            try:
                admit("class-1", 7, 1, 1)
            except ValueError:
                pass

        for _ in range(100):
            caller()
        gc.collect()
        assert len(refs) == 100
        assert all(ref() is None for ref in refs)
