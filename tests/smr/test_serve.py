"""Pipelined, batched serving: workload determinism and digest equivalence.

The central oracle: whatever the batching and pipelining settings, the
committed command sequence must equal the slot-at-a-time baseline's —
batching and pipelining are *serving* optimizations, not semantic changes.
"""

import itertools
import tracemalloc
from dataclasses import replace

import pytest

from repro.algorithms import build_pbft
from repro.campaigns.results import iter_rows
from repro.cli import main
from repro.core.parameters import ParameterError
from repro.scenarios import get_scenario
from repro.smr import (
    KeyValueStore,
    ServeConfig,
    WorkloadSpec,
    run_serve,
    sweep_serve,
)
from tests.smr.counter import CounterMachine


class TestWorkloadSpec:
    def test_arrivals_are_deterministic(self):
        spec = WorkloadSpec(clients=3, rate=50.0, duration=1.0, seed=42)
        assert list(spec.arrivals()) == list(spec.arrivals())

    def test_seed_changes_arrivals(self):
        a = WorkloadSpec(clients=2, rate=50.0, duration=1.0, seed=1)
        b = WorkloadSpec(clients=2, rate=50.0, duration=1.0, seed=2)
        assert list(a.arrivals()) != list(b.arrivals())

    def test_arrivals_sorted_and_bounded(self):
        spec = WorkloadSpec(clients=4, rate=80.0, duration=2.0, seed=7)
        times = [when for when, _ in spec.arrivals()]
        assert times == sorted(times)
        assert all(0.0 < when <= spec.duration for when in times)

    def test_fixed_rate_is_exact(self):
        spec = WorkloadSpec(
            clients=2, rate=40.0, duration=1.0, arrival="fixed", seed=0
        )
        arrivals = list(spec.arrivals())
        assert len(arrivals) == int(spec.rate * spec.duration) == 40

    def test_poisson_count_is_near_rate(self):
        spec = WorkloadSpec(clients=4, rate=1000.0, duration=1.0, seed=3)
        count = sum(1 for _ in spec.arrivals())
        assert 850 <= count <= 1150  # ~3 sigma around the mean

    def test_huge_workload_is_lazy(self):
        # A hundred-million-command workload must cost O(clients) to peek.
        spec = WorkloadSpec(clients=4, rate=100_000_000.0, duration=1.0)
        head = list(itertools.islice(spec.arrivals(), 10))
        assert len(head) == 10

    def test_commands_cycle_keyspace(self):
        spec = WorkloadSpec(clients=1, rate=64.0, duration=1.0,
                            arrival="fixed", keys=4)
        keys = {command[1] for _, command in spec.arrivals()}
        assert keys == {"c0k0", "c0k1", "c0k2", "c0k3"}

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(clients=0)
        with pytest.raises(ValueError):
            WorkloadSpec(rate=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(arrival="bursty")

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("inf"), float("nan")])
    def test_rate_and_duration_must_be_finite_and_positive(self, bad):
        # inf / nan used to construct and then never end the stream.
        with pytest.raises(ValueError, match="rate must be finite and > 0"):
            WorkloadSpec(rate=bad)
        with pytest.raises(ValueError, match="duration must be finite and > 0"):
            WorkloadSpec(duration=bad)


class TestServeConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ServeConfig(batch=0)
        with pytest.raises(ValueError):
            ServeConfig(depth=0)
        with pytest.raises(ValueError):
            ServeConfig(max_attempts=0)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_phases must be ≥ 1"):
                ServeConfig(max_phases=bad)

    def test_inadmissible_model_raises(self):
        # PBFT hosts no crash faults: f > 0 cannot be served.
        with pytest.raises(ParameterError, match="pbft hosts"):
            run_serve(
                ServeConfig(algorithm="pbft", n=7, b=2, f=2),
                WorkloadSpec(rate=10.0, duration=0.1),
            )


WORKLOAD = WorkloadSpec(clients=3, rate=60.0, duration=1.0, seed=11)

#: ``lossy_channel`` with a one-phase horizon: the scenario's suggested
#: horizon is dropped, since it would raise the one phase asked for.
_STALLED = ServeConfig(
    n=4, b=1, scenario=replace(get_scenario("lossy_channel"), max_phases=None),
    batch=2, depth=2, seed=5, max_attempts=1, max_phases=1,
)


def _serve(scenario, batch, depth, **overrides):
    config = ServeConfig(
        algorithm="pbft", n=4, b=1, scenario=scenario,
        batch=batch, depth=depth, seed=5, **overrides,
    )
    return run_serve(config, WORKLOAD)


class TestExplicitArrivals:
    """Every honest replica applies the committed log.  That any ``(batch,
    depth)`` commits the slot-at-a-time log is the equivalence table's
    ``serve`` entry."""

    @pytest.mark.parametrize(
        "config, machine, arrivals, read, expected",
        [
            pytest.param(
                ServeConfig(n=4, b=1, batch=4, depth=3, seed=2),
                CounterMachine,
                [(0.1 * i, ("add", i)) for i in range(1, 13)],
                lambda replica: replica.value, 78,
                id="counter",
            ),
            pytest.param(
                ServeConfig(algorithm="paxos", n=3, b=0, batch=1, depth=1),
                KeyValueStore,
                [(0.1, ("set", "x", 1)), (0.2, ("set", "y", 2)),
                 (0.3, ("del", "x"))],
                lambda replica: (replica.get("x"), replica.get("y")),
                (None, 2),
                id="paxos-kv",
            ),
            pytest.param(
                ServeConfig(n=4, b=1, scenario="worst_case", batch=1, depth=1),
                KeyValueStore,
                [(0.1, ("set", "k", "v")), (0.2, ("set", "k2", "v2")),
                 (0.3, ("set", "k", "v3"))],
                lambda replica: (replica.get("k"), replica.get("k2")),
                ("v3", "v2"),
                id="pbft-worst-case-kv",
            ),
            pytest.param(
                ServeConfig(n=4, b=1, batch=1, depth=1), KeyValueStore, [],
                len, 0,
                id="no-arrivals",
            ),
        ],
    )
    def test_explicit_arrivals_replicate(
        self, config, machine, arrivals, read, expected
    ):
        replicas = []

        def build():
            replicas.append(machine())
            return replicas[-1]

        report = run_serve(config, arrivals=arrivals, machine_factory=build)
        assert not report.stalled
        assert report.committed_commands == len(arrivals)
        assert (report.slots_committed == 0) == (not arrivals)
        assert report.digests_agree
        assert report.log_digest != "diverged"
        # Every honest replica reads the last write of every key.
        assert [read(replica) for replica in replicas] == [expected] * len(
            replicas
        )


class TestBatching:
    def test_batch_cap_respected(self):
        report = _serve("fault-free", batch=4, depth=2)
        sizes = report.telemetry._histograms["smr.batch_size"]
        assert sizes and max(sizes) <= 4


class TestPipelining:
    def test_deeper_pipeline_fewer_simulated_units(self):
        shallow = _serve("fault-free", batch=1, depth=1)
        deep = _serve("fault-free", batch=1, depth=4)
        assert type(deep.simulated_duration) is float  # lockstep: rounds × 1.0
        assert deep.simulated_duration < shallow.simulated_duration
        assert deep.log_digest == shallow.log_digest

    def test_batching_reduces_slots(self):
        single = _serve("fault-free", batch=1, depth=2)
        batched = _serve("fault-free", batch=16, depth=2)
        assert batched.slots_committed < single.slots_committed
        assert batched.committed_commands == single.committed_commands

    def test_latency_improves_with_batching_and_pipelining(self):
        base = _serve("fault-free", batch=1, depth=1)
        fast = _serve("fault-free", batch=16, depth=4)
        assert fast.latency["p99"] < base.latency["p99"]


class TestServeReport:
    def test_latency_percentiles_present(self):
        report = _serve("fault-free", batch=8, depth=2)
        for column in ("count", "min", "max", "mean", "p50", "p95", "p99"):
            assert column in report.latency
        assert (
            report.latency["p50"]
            <= report.latency["p95"]
            <= report.latency["p99"]
            <= report.latency["max"]
        )

    def test_row_is_flat_and_wall_volatile(self):
        row = _serve("fault-free", batch=8, depth=2).to_row()
        assert row["algorithm"] == "pbft"
        assert row["latency_p99"] is not None
        assert "_wall_seconds" in row  # stripped by row_to_json
        assert "telemetry" not in row

    def test_counters_observed(self):
        report = _serve("fault-free", batch=8, depth=2)
        counters = report.telemetry.counters
        assert counters["smr.slots"] == report.slots_committed
        assert counters["smr.commands"] == report.committed_commands
        assert counters["smr.messages"] > 0
        # Every slot runs at least one whole phase of the algorithm.
        assert (
            counters["smr.rounds"] / counters["smr.slots"]
            >= build_pbft(4).parameters.rounds_per_phase
        )

    def test_stall_reported_not_raised(self):
        # One attempt under heavy loss with a tiny horizon cannot decide.
        report = run_serve(_STALLED, WORKLOAD)
        assert report.stalled
        assert report.committed_commands < report.offered
        assert report.telemetry.counters["smr.stalled_slots"] == 1


_HISTOGRAMS = [
    "smr.batch_size", "smr.request_latency", "smr.latency.queue_wait",
    "smr.latency.consensus", "smr.latency.apply_wait",
]

#: cell → (config, workload, explicit arrivals).
_PIN_CELLS = {
    "worst_case-replicate": (
        ServeConfig(n=4, b=1, scenario="worst_case", batch=8, depth=4, seed=3),
        WORKLOAD, None,
    ),
    "lossy_channel-retries": (
        ServeConfig(n=4, b=1, scenario="lossy_channel", batch=4, depth=2, seed=5),
        WORKLOAD, None,
    ),
    # The stalled cell of ``test_stall_reported_not_raised``.
    "lossy_channel-stalled": (_STALLED, WORKLOAD, None),
    "partition_heal-timed-fixed": (
        ServeConfig(
            n=4, b=1, scenario="partition_heal", engine="timed",
            batch=4, depth=3, seed=2,
        ),
        WorkloadSpec(clients=2, rate=30.0, duration=1.0, arrival="fixed", seed=4),
        None,
    ),
    "no-arrivals": (ServeConfig(n=4, b=1), WORKLOAD, []),
}

#: cell → (counters, {histogram: (count, repr(sum), repr(min), repr(max))}),
#: recorded when the serve loop still counted and observed per request.
_PINS = {
    "worst_case-replicate": (
        {
            "smr.instances_run": 1, "smr.messages": 624, "smr.rounds": 39,
            "smr.slots": 13, "smr.commands": 71, "smr.slots_replicated": 12,
        },
        {
            "smr.batch_size": (13, "71.0", "1.0", "8.0"),
            "smr.request_latency": (
                71, "494.24157385742274", "3.0", "11.063866595763429",
            ),
            "smr.latency.queue_wait": (
                71, "281.2415738574227", "0.0", "8.063866595763429",
            ),
            "smr.latency.consensus": (
                71, "213.0", "2.9999999999999996", "3.0000000000000004",
            ),
            "smr.latency.apply_wait": (71, "0.0", "0.0", "0.0"),
        },
    ),
    "lossy_channel-retries": (
        {
            "smr.instances_run": 22, "smr.messages": 16080, "smr.rounds": 1005,
            "smr.slots": 20, "smr.commands": 71, "smr.retries": 2,
            "smr.retries.undecided": 2,
        },
        {
            "smr.batch_size": (20, "71.0", "1.0", "4.0"),
            "smr.request_latency": (
                71, "23251.825404704865", "54.0", "521.0403362134808",
            ),
            "smr.latency.queue_wait": (
                71, "19297.8071826388", "0.0", "467.04033621348077",
            ),
            "smr.latency.consensus": (71, "3534.0", "9.0", "108.00000000000001"),
            "smr.latency.apply_wait": (
                71, "420.0182220660641", "0.0", "53.99544448348401",
            ),
        },
    ),
    "lossy_channel-stalled": (
        {
            "smr.instances_run": 1, "smr.messages": 48, "smr.rounds": 3,
            "smr.retries": 1, "smr.retries.undecided": 1,
            "smr.stalled_slots": 1,
        },
        {},
    ),
    "partition_heal-timed-fixed": (
        {
            "smr.instances_run": 1, "smr.messages": 1440, "smr.rounds": 90,
            "smr.slots": 10, "smr.commands": 30, "smr.slots_replicated": 9,
        },
        {
            "smr.batch_size": (10, "30.0", "1.0", "4.0"),
            "smr.request_latency": (30, "1674.1", "22.5", "89.13333333333333"),
            "smr.latency.queue_wait": (
                30, "999.0999999999999", "0.0", "66.63333333333333",
            ),
            "smr.latency.consensus": (30, "675.0", "22.499999999999993", "22.5"),
            "smr.latency.apply_wait": (30, "0.0", "0.0", "0.0"),
        },
    ),
    # A serve that never proposed has no counter at all.
    "no-arrivals": ({}, {}),
}


class TestTelemetryPins:
    """Counters and histogram samples do not depend on how the loop books
    them: per request or once per slot, the registry reads the same."""

    @pytest.mark.parametrize("cell", sorted(_PIN_CELLS))
    def test_counters_and_histograms_pinned(self, cell):
        config, workload, arrivals = _PIN_CELLS[cell]
        counters, histograms = _PINS[cell]
        telemetry = run_serve(config, workload, arrivals=arrivals).telemetry
        assert telemetry.counters == counters
        assert telemetry.histogram_names == (_HISTOGRAMS if histograms else [])
        for name in telemetry.histogram_names:
            samples = telemetry._histograms[name]
            assert (
                len(samples), repr(sum(samples)), repr(min(samples)),
                repr(max(samples)),
            ) == histograms[name], name


class TestMemory:
    """A serve retains a few float64 samples a request, no object."""

    @staticmethod
    def _traced_peak(duration):
        config = ServeConfig(
            algorithm="pbft", n=4, b=1, scenario="worst_case", batch=8,
            depth=4, seed=7,
        )
        workload = WorkloadSpec(clients=4, rate=8.0, duration=duration, seed=7)
        tracemalloc.start()
        try:
            report = run_serve(config, workload)
            return tracemalloc.get_traced_memory()[1], report.offered
        finally:
            tracemalloc.stop()

    def test_peak_grows_at_most_128_bytes_a_request(self):
        # About 10k and 40k requests.  Four float64 samples (32 B) a request
        # plus the sorted latency copy the stats read (40 B) fit the bound;
        # boxed samples and retained log entries cost about 280 B.
        small_peak, small = self._traced_peak(1250.0)
        large_peak, large = self._traced_peak(5000.0)
        assert large > 3 * small > 0
        growth = (large_peak - small_peak) / (large - small)
        assert growth <= 128, f"{growth:.0f} B a request"


class TestSweep:
    def test_rows_cover_the_grid(self, tmp_path, capsys):
        out = tmp_path / "serve.jsonl"
        argv = [
            "smr", "sweep", "--n", "4", "--b", "1", "--batch", "4",
            "--depth", "2", "--seed", "9", "--clients", "2",
            "--duration", "0.5", "--rates", "20,40",
            "--scenarios", "fault-free,worst_case", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "wrote 4 row(s)" in capsys.readouterr().out
        rows = list(iter_rows(out))
        assert len(rows) == 4
        assert {row["status"] for row in rows} == {"ok"}
        assert all(row["digests_agree"] for row in rows)
        assert "_wall_seconds" not in out.read_text().splitlines()[0]

    def test_inapplicable_cells_become_rows(self):
        rows = sweep_serve(
            ServeConfig(algorithm="pbft", n=7, b=2, f=2, seed=1),
            WorkloadSpec(clients=2, rate=20.0, duration=0.5, seed=1),
            rates=(20.0,),
            scenarios=("fault-free",),
        )
        assert rows[0]["status"] == "inapplicable"
        assert set(rows[0]) == {"rate", "cell", "status", "scenario", "detail"}
        assert rows[0]["detail"].startswith("pbft hosts (b=2, f=0)")

    @pytest.mark.parametrize(
        "cell, reason",
        [
            (["--algorithm", "pbft", "--n", "3", "--b", "1"], "n > 3b"),
        ],
    )
    def test_rejected_cells_are_rows_not_tracebacks(
        self, tmp_path, capsys, cell, reason
    ):
        """Whatever admission refuses of a model, the sweep records — like
        the hosted-envelope cell above — instead of dying on the exception.
        (A misspelt name is a usage error instead: ``test_cli``.)"""
        out = tmp_path / "serve.jsonl"
        argv = ["smr", "sweep", *cell, "--rates", "50",
                "--scenarios", "fault-free", "--out", str(out)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert reason in captured.err
        assert "inapplicable" in captured.out
        (row,) = iter_rows(out)
        assert row["status"] == "inapplicable"
        assert reason in row["detail"]
        # The message itself, not KeyError's repr of it.
        assert not row["detail"].startswith(('"', "'"))

    def test_cells_are_order_independent(self):
        config = ServeConfig(n=4, b=1, batch=4, depth=2, seed=9)
        workload = WorkloadSpec(clients=2, rate=40.0, duration=0.5, seed=9)
        forward = sweep_serve(config, workload, rates=(20.0, 40.0),
                              scenarios=("fault-free",))
        backward = sweep_serve(config, workload, rates=(40.0, 20.0),
                               scenarios=("fault-free",))

        def canonical(rows):
            # Wall-clock-derived columns vary run to run; everything else
            # must be byte-identical at any sweep order.
            return sorted(
                (
                    {
                        key: value
                        for key, value in row.items()
                        if key != "throughput" and not key.startswith("_")
                    }
                    for row in rows
                ),
                key=lambda row: row["cell"],
            )

        assert canonical(forward) == canonical(backward)
