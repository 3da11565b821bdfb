"""Runner semantics: determinism across worker counts, fault isolation."""

import pytest

from repro.campaigns.runner import execute_run, run_campaign
from repro.campaigns.spec import CampaignSpec, NetworkSpec
from repro.scenarios import ScenarioSpec


def mixed_spec(**overrides):
    """A small grid crossing both engines and an adversarial fault."""
    timing = NetworkSpec(gst=4.0, pre_gst_delay_prob=0.6)
    kwargs = dict(
        name="runner-unit",
        algorithms=("pbft", "class-2"),
        models=((4, 1, 0), (5, 1, 0)),
        engines=("lockstep", "timed"),
        scenarios=(
            ScenarioSpec(timing=timing),
            ScenarioSpec(byzantine=("equivocator",), timing=timing),
        ),
        repetitions=2,
        seed=21,
        max_phases=12,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestDeterminism:
    def test_campaign_seed_moves_timed_results(self):
        timed_only = mixed_spec(engines=("timed",))
        base = run_campaign(timed_only)
        moved = run_campaign(mixed_spec(engines=("timed",), seed=99))
        assert [row["seed"] for row in base] != [row["seed"] for row in moved]


class TestIsolation:
    def test_error_row_instead_of_crash(self):
        """An exploding cell records status=error; the rest still run."""
        spec = mixed_spec(
            algorithms=("pbft", "no-such-algorithm"),
            engines=("lockstep",),
        )
        rows = run_campaign(spec, workers=2)
        by_status = {}
        for row in rows:
            by_status.setdefault(row["status"], []).append(row)
        assert all(
            row["algorithm"] == "no-such-algorithm"
            for row in by_status["error"]
        )
        assert by_status["ok"], "healthy cells must still execute"
        assert all(
            "unknown algorithm" in row["error"] for row in by_status["error"]
        )

    def test_failing_strategy_is_isolated(self):
        rows = run_campaign(
            mixed_spec(
                engines=("lockstep",),
                scenarios=(ScenarioSpec(byzantine=("no-such-strategy",)),),
            )
        )
        # class-2 at n=4 is rejected by its bound before the fault script
        # runs; every admitted cell must fail with the strategy error.
        errors = [row for row in rows if row["status"] != "inadmissible"]
        assert errors
        assert all(row["status"] == "error" for row in errors)
        assert all(
            "unknown Byzantine strategy" in row["error"] for row in errors
        )

    def test_below_bound_is_inadmissible_not_error(self):
        rows = run_campaign(
            CampaignSpec(
                name="bounds",
                algorithms=("class-1",),
                models=((4, 1, 0), (6, 1, 0)),
            )
        )
        statuses = {row["n"]: row["status"] for row in rows}
        assert statuses == {4: "inadmissible", 6: "ok"}

    def test_unhosted_fault_envelope_is_inadmissible(self):
        """A benign algorithm cannot host a Byzantine grid point."""
        rows = run_campaign(
            CampaignSpec(
                name="envelope",
                algorithms=("one-third-rule", "pbft"),
                models=((6, 1, 0), (4, 0, 1)),
                scenarios=(ScenarioSpec(byzantine=("equivocator",)),
                           ScenarioSpec(crashes=-1)),
            )
        )
        statuses = {
            (row["algorithm"], row["n"], row["f"]): row["status"]
            for row in rows
            if row["status"] == "inadmissible"
        }
        # one-third-rule is benign-only (b=1 unhosted); pbft has f=0.
        assert ("one-third-rule", 6, 0) in statuses
        assert ("pbft", 4, 1) in statuses
        assert not any(row["status"] == "error" for row in rows)

    def test_inapplicable_fault_scripts(self):
        rows = run_campaign(
            CampaignSpec(
                name="inapplicable",
                algorithms=("paxos",),
                models=((3, 0, 1),),
                engines=("lockstep", "timed"),
                scenarios=(ScenarioSpec(byzantine=("silent",)),
                           ScenarioSpec(crashes=-1)),
            )
        )
        statuses = {
            (row["engine"], row["fault"]): row["status"] for row in rows
        }
        # b = 0 hosts no Byzantine script; crash scripts execute through the
        # kernel's crash schedule on *both* engines.
        assert statuses[("lockstep", "byz:silent")] == "inapplicable"
        assert statuses[("timed", "byz:silent")] == "inapplicable"
        assert statuses[("timed", "crash:f@1")] == "ok"
        assert statuses[("lockstep", "crash:f@1")] == "ok"

    def test_oversized_crash_script_stays_inapplicable(self):
        """The subsumed crashes > f check survives the timed-crash lift."""
        rows = run_campaign(
            CampaignSpec(
                name="crash-bound",
                algorithms=("paxos",),
                models=((3, 0, 1),),
                engines=("lockstep", "timed"),
                scenarios=(ScenarioSpec(crashes=2),),
            )
        )
        assert {row["status"] for row in rows} == {"inapplicable"}
        assert all("crashes 2 > f = 1" in row["error"] for row in rows)


class TestRows:
    def test_ok_rows_carry_properties_and_metrics(self):
        rows = run_campaign(mixed_spec())
        ok = [row for row in rows if row["status"] == "ok"]
        assert ok
        for row in ok:
            assert row["agreement"] is True
            assert row["termination"] is True
            assert row["validity"] is True
            assert row["messages_sent"] > 0
            if row["engine"] == "timed":
                assert row["time_to_decision"] > 0
            else:
                assert row["phases"] >= 1
                assert row["time_to_decision"] is None

    def test_rows_sorted_by_run_id(self):
        rows = run_campaign(mixed_spec(), workers=3)
        assert [row["run_id"] for row in rows] == list(range(len(rows)))

    def test_execute_run_never_raises(self):
        spec = mixed_spec(algorithms=("no-such-algorithm",))
        for run in spec.iter_runs():
            row = execute_run(run)
            assert row["status"] == "error"

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            run_campaign(mixed_spec(), workers=0)


def test_progress_callback_sees_every_run():
    spec = mixed_spec(engines=("lockstep",), repetitions=1)
    seen = []
    run_campaign(spec, progress=lambda done, total: seen.append((done, total)))
    total = spec.total_runs
    assert seen == [(i, total) for i in range(1, total + 1)]
