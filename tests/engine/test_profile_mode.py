"""A bound ``telemetry``: phase spans without trace objects, parity intact."""

import pytest

from repro.algorithms import build_one_third_rule, build_pbft
from repro.engine.assembly import build_instance
from repro.engine.kernel import OBSERVE_FULL, OBSERVE_METRICS, ExecutionKernel, run_instance
from repro.engine.scheduler import LockstepScheduler, TimedScheduler
from repro.eventsim.network import NetworkSpec
from repro.network.stack import PconsStackScheduler
from repro.network.wic import AuthenticatedCoordinatorEcho
from repro.observability import Telemetry

KERNEL_SPANS = {"kernel.send", "scheduler.deliver", "kernel.apply",
                "kernel.probe", "kernel.observe"}


def run_cell(spec, *, engine="lockstep", observe=OBSERVE_METRICS,
             telemetry=None, byzantine=None, timing=NetworkSpec()):
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
    elif engine == "stack":
        scheduler = PconsStackScheduler(AuthenticatedCoordinatorEcho(model))
    else:
        scheduler = TimedScheduler(timing.build(7))
    return run_instance(
        instance, scheduler, max_phases=12, observe=observe,
        telemetry=telemetry,
    )


class TestBoundTelemetry:
    @pytest.mark.parametrize("engine", ["lockstep", "timed", "stack"])
    def test_metrics_run_with_telemetry_keeps_no_trace(self, engine):
        """Every kernel span — delivery included, whichever scheduler is
        bound — is opened once per round."""
        outcome = run_cell(
            build_pbft(4), engine=engine, telemetry=Telemetry(),
            byzantine={3: "equivocator"},
        )
        assert outcome.trace is None
        assert outcome.telemetry is not None
        names = set(outcome.telemetry.span_names)
        assert KERNEL_SPANS <= names
        rounds = outcome.rounds_executed
        for span in KERNEL_SPANS:
            stats = outcome.telemetry.span_stats(span)
            assert stats["calls"] == rounds
            assert stats["total_s"] >= stats["self_s"] >= 0.0

    def test_timed_telemetry_times_network_sampling(self):
        # The default timing settles every round with no draw; rounds
        # before GST 5 draw latencies.
        outcome = run_cell(
            build_one_third_rule(4), engine="timed", telemetry=Telemetry(),
            timing=NetworkSpec(gst=5.0),
        )
        tel = outcome.telemetry
        assert "network.sample" in tel.span_names
        # Sampling happens inside delivery, so its time nests under the
        # scheduler span: deliver's self time excludes it.
        deliver = tel.span_stats("scheduler.deliver")
        sample = tel.span_stats("network.sample")
        assert deliver["self_s"] == pytest.approx(
            deliver["total_s"] - sample["total_s"]
        )

    @pytest.mark.parametrize("engine", ["lockstep", "timed"])
    def test_telemetry_matches_plain_metrics_results(self, engine):
        spec = build_pbft(4)
        metrics = run_cell(spec, engine=engine, observe=OBSERVE_METRICS,
                           byzantine={3: "equivocator"})
        profiled = run_cell(spec, engine=engine, telemetry=Telemetry(),
                            byzantine={3: "equivocator"})
        assert {p: d.value for p, d in profiled.decisions.items()} == {
            p: d.value for p, d in metrics.decisions.items()
        }
        assert profiled.rounds_executed == metrics.rounds_executed
        assert profiled.messages_sent == metrics.messages_sent
        assert profiled.messages_delivered == metrics.messages_delivered
        assert profiled.invariant_report() == metrics.invariant_report()

    def test_metrics_and_full_attach_no_telemetry_by_default(self):
        spec = build_one_third_rule(4)
        assert run_cell(spec, observe=OBSERVE_METRICS).telemetry is None
        assert run_cell(spec, observe=OBSERVE_FULL).telemetry is None

    def test_explicit_telemetry_composes_with_full_observation(self):
        tel = Telemetry()
        outcome = run_cell(
            build_pbft(4), observe=OBSERVE_FULL, telemetry=tel,
            byzantine={3: "equivocator"},
        )
        assert outcome.telemetry is tel
        assert outcome.trace is not None  # full mode keeps its trace
        assert KERNEL_SPANS <= set(tel.span_names)

    def test_shared_telemetry_accumulates_across_runs(self):
        tel = Telemetry()
        spec = build_one_third_rule(4)
        first = run_cell(spec, telemetry=tel)
        second = run_cell(spec, telemetry=tel)
        assert first.telemetry is second.telemetry is tel
        assert tel.span_stats("kernel.send")["calls"] == (
            first.rounds_executed + second.rounds_executed
        )

    def test_scheduler_reuse_rebinds_telemetry(self):
        # A scheduler carried from an instrumented run into a plain one
        # must not keep reporting into the stale registry.
        spec = build_one_third_rule(4)
        model = spec.parameters.model
        values = {pid: f"v{pid % 2}" for pid in model.processes}
        scheduler = LockstepScheduler()
        tel = Telemetry()
        instance = build_instance(spec.parameters, values, config=spec.config)
        run_instance(instance, scheduler, max_phases=12,
                     observe=OBSERVE_METRICS, telemetry=tel)
        calls = tel.span_stats("scheduler.deliver")["calls"]
        instance = build_instance(spec.parameters, values, config=spec.config)
        run_instance(instance, scheduler, max_phases=12,
                     observe=OBSERVE_METRICS)
        assert tel.span_stats("scheduler.deliver")["calls"] == calls

    def test_the_retired_profile_spelling_runs_as_metrics(self):
        # ``run_instance`` still reads ``observe="profile"`` (the end-to-end
        # tracer passes it beside its own registry); the kernel refuses it.
        tel = Telemetry()
        outcome = run_cell(build_one_third_rule(4), observe="profile", telemetry=tel)
        assert outcome.observe == OBSERVE_METRICS and outcome.trace is None
        assert outcome.telemetry is tel
        spec = build_one_third_rule(4)
        values = {pid: f"v{pid % 2}" for pid in spec.parameters.model.processes}
        instance = build_instance(spec.parameters, values, config=spec.config)
        with pytest.raises(ValueError, match="unknown observe mode 'profile'"):
            ExecutionKernel(spec.parameters.model, instance.processes, LockstepScheduler(),
                            instance.structure.info, observe="profile")
