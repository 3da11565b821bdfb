"""The scenarios campaign axis."""

import pytest

from repro.campaigns import BUILTIN_CAMPAIGNS
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import CampaignSpec
from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.spec import CommSpec


def scenario_spec(**overrides):
    kwargs = dict(
        name="scenario-unit",
        algorithms=("pbft",),
        models=((4, 1, 0),),
        engines=("lockstep", "timed"),
        scenarios=("fault-free", "worst_case", "partition_heal"),
        seed=3,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestScenarioAxis:
    def test_names_resolve_through_registry(self):
        spec = scenario_spec()
        assert spec.scenarios == (
            get_scenario("fault-free"),
            get_scenario("worst_case"),
            get_scenario("partition_heal"),
        )

    def test_total_runs_counts_scenarios(self):
        assert scenario_spec().total_runs == 1 * 1 * 2 * 3

    def test_inline_spec_accepted(self):
        inline = ScenarioSpec(
            name="inline", comm=CommSpec(kind="lossy", drop_prob=0.1)
        )
        spec = scenario_spec(scenarios=(inline,))
        rows = run_campaign(spec)
        assert {row["status"] for row in rows} == {"ok"}
        assert all(row["fault"] == "lossy:0.1" for row in rows)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_spec(scenarios=("no-such-scenario",))

    def test_empty_axis_is_the_fault_free_scenario(self):
        spec = scenario_spec(scenarios=())
        assert spec.scenarios == (get_scenario("fault-free"),)
        assert spec == scenario_spec(scenarios=("fault-free",))

    @pytest.mark.parametrize("axis", ["faults", "networks"])
    def test_retired_axes_are_not_constructor_arguments(self, axis):
        with pytest.raises(TypeError, match=axis):
            scenario_spec(**{axis: ()})

    def test_rows_ok_across_engines(self):
        rows = run_campaign(scenario_spec(), workers=2)
        assert len(rows) == 6
        assert {row["status"] for row in rows} == {"ok"}
        assert all(row["agreement"] is True for row in rows)

    def test_mapping_round_trip_with_scenarios(self):
        spec = scenario_spec()
        assert CampaignSpec.from_mapping(spec.to_mapping()) == spec

    def test_default_axes_round_trip(self):
        """A spec built with every axis defaulted must survive
        to_mapping/from_mapping unchanged."""
        spec = CampaignSpec(
            name="defaults", algorithms=("pbft",), models=((4, 1, 0),)
        )
        assert CampaignSpec.from_mapping(spec.to_mapping()) == spec

    def test_scenario_names_load_from_mapping(self):
        spec = CampaignSpec.from_mapping(
            {
                "name": "by-name",
                "algorithms": ["pbft"],
                "models": [[4, 1, 0]],
                "scenarios": ["worst_case"],
            }
        )
        assert spec.scenarios == (get_scenario("worst_case"),)


class TestGauntlet:
    def test_gauntlet_sweeps_every_registered_scenario(self):
        from repro.scenarios import SCENARIO_REGISTRY

        spec = BUILTIN_CAMPAIGNS["gauntlet"]
        swept = {scenario.name for scenario in spec.scenarios}
        assert swept == set(SCENARIO_REGISTRY)
        assert set(spec.engines) == {"lockstep", "timed"}

    def test_gauntlet_runs_clean(self):
        rows = run_campaign(BUILTIN_CAMPAIGNS["gauntlet"], workers=2)
        statuses = {row["status"] for row in rows}
        assert "error" not in statuses
        assert "ok" in statuses
        # Safety holds in every admitted cell of every environment.
        for row in rows:
            if row["status"] == "ok":
                assert row["agreement"] is True
                assert row["validity"] is True
        # ≥ 5 distinct scenarios actually execute on both engines.
        executed = {
            (row["fault"], row["engine"])
            for row in rows
            if row["status"] == "ok"
        }
        for engine in ("lockstep", "timed"):
            assert len({f for f, e in executed if e == engine}) >= 5
