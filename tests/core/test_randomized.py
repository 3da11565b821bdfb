"""The randomized adaptation (Section 6), through the one way to run."""

import pytest

from repro.algorithms.ben_or import build_ben_or
from repro.campaigns import CampaignSpec, rows_to_jsonl, run_campaign
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.randomized import RANDOMIZED, check_randomizable, make_coin
from repro.core.types import FaultModel
from repro.engine import build_instance
from repro.engine.batch import MODE_SCALAR, plan_for_run
from repro.scenarios import CommSpec, ScenarioSpec, run_scenario

#: ``Prel`` in every round and nothing better, ever (Section 6's model).
PREL = CommSpec(kind="async-prel")


def run_prel(spec, values, *, seed, byzantine=(), max_phases=200):
    """One seeded run of ``spec`` under the ``Prel``-only adversary;
    ``byzantine`` strategies sit on the top process ids."""
    return run_scenario(
        ScenarioSpec(byzantine=tuple(byzantine), comm=PREL),
        spec.parameters,
        rng=seed,
        initial_values=values,
        config=spec.config,
        max_phases=max_phases,
    )


class TestCoin:
    def test_deterministic_per_seed(self):
        a = make_coin(1, process=0)
        b = make_coin(1, process=0)
        assert [a(p) for p in range(10)] == [b(p) for p in range(10)]

    def test_independent_per_process(self):
        a = make_coin(1, process=0)
        b = make_coin(1, process=1)
        assert [a(p) for p in range(20)] != [b(p) for p in range(20)]

    def test_values_drawn_from_pool(self):
        coin = make_coin(3, process=0, values=("h", "t"))
        assert {coin(p) for p in range(30)} == {"h", "t"}

    def test_requires_two_outcomes(self):
        with pytest.raises(ValueError):
            make_coin(0, process=0, values=(1,))


def _streams(seed, values=None):
    """The first 24 flips of every honest process of one assembled
    Ben-Or instance."""
    spec = build_ben_or(5, b=1)
    values = values or {0: "v0", 1: "v1", 2: "v0", 3: "v1"}
    instance = build_instance(
        spec.parameters,
        values,
        config=spec.config,
        byzantine={4: "silent"},
        seed=seed,
    )
    return {
        pid: [process.config.coin(phase) for phase in range(24)]
        for pid, process in instance.honest_processes.items()
    }


class TestSeededAssembly:
    """The coin is a fact of the cell: ``build_instance`` seeds it per run
    and per process, or refuses."""

    def test_registry_entry_is_randomized(self):
        assert build_ben_or(3).config.coin is RANDOMIZED
        assert build_ben_or(5, b=1).config.coin is RANDOMIZED

    def test_streams_differ_per_process_and_reproduce_per_seed(self):
        first = _streams(7)
        assert set(first) == {0, 1, 2, 3}
        assert len({tuple(flips) for flips in first.values()}) == 4
        assert _streams(7) == first
        assert _streams(8) != first

    def test_outcomes_are_the_runs_own_proposals(self):
        for flips in _streams(3).values():
            assert set(flips) == {"v0", "v1"}
        for flips in _streams(3, {0: 1, 1: 0, 2: 1, 3: 0}).values():
            assert set(flips) == {0, 1}

    def test_unseeded_assembly_raises(self):
        spec = build_ben_or(3)
        with pytest.raises(ValueError, match="needs its run's seed"):
            build_instance(
                spec.parameters, {0: 1, 1: 0, 2: 1}, config=spec.config
            )
        with pytest.raises(ValueError, match="needs its run's seed"):
            spec.run({0: 1, 1: 0, 2: 1})

    def test_three_proposals_raise(self):
        spec = build_ben_or(3)
        with pytest.raises(ValueError, match="binary"):
            run_prel(spec, {0: "a", 1: "b", 2: "c"}, seed=0)

    def test_the_marker_itself_never_flips(self):
        with pytest.raises(ValueError, match="never seeded"):
            RANDOMIZED(1)


class TestRandomizable:
    def test_classes_1_and_2_yes_class_3_no(self):
        """Section 6: only classes 1 and 2 satisfy strengthened liveness."""
        cases = [
            (AlgorithmClass.CLASS_1, FaultModel(6, 1, 0), True),
            (AlgorithmClass.CLASS_2, FaultModel(5, 1, 0), True),
            (AlgorithmClass.CLASS_3, FaultModel(4, 1, 0), False),
        ]
        for cls, model, expected in cases:
            params = build_class_parameters(cls, model)
            assert check_randomizable(params) is expected

    def test_class3_run_rejected(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        with pytest.raises(ValueError, match="FLV-liveness"):
            run_scenario(
                ScenarioSpec(comm=PREL),
                params,
                rng=0,
                config=build_ben_or(3).config,
            )


class TestBenOrBenign:
    def test_unanimous_start_decides_immediately(self):
        outcome = run_prel(build_ben_or(4), {pid: 1 for pid in range(4)}, seed=11)
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.decided_values == {1}
        assert outcome.phases_to_last_decision == 1

    def test_split_start_terminates_with_probability_one(self):
        outcome = run_prel(build_ben_or(4), {0: 0, 1: 1, 2: 0, 3: 1}, seed=5)
        assert outcome.agreement_holds
        assert outcome.all_correct_decided
        assert outcome.decided_values <= {0, 1}

    def test_multiple_seeds_always_agree(self):
        spec = build_ben_or(5)
        for seed in range(8):
            outcome = run_prel(
                spec, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}, seed=seed
            )
            assert outcome.agreement_holds, f"seed {seed}"
            assert outcome.all_correct_decided, f"seed {seed}"


class TestBenOrByzantine:
    def test_silent_adversary(self):
        outcome = run_prel(
            build_ben_or(5, b=1),
            {0: 0, 1: 1, 2: 0, 3: 1},
            seed=3,
            byzantine=["silent"],
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided

    def test_equivocating_adversary_with_slack(self):
        # n = 8 > 4b + 3 gives enough slack for fast convergence.
        outcome = run_prel(
            build_ben_or(8, b=1),
            {pid: pid % 2 for pid in range(7)},
            seed=3,
            byzantine=["equivocator"],
            max_phases=300,
        )
        assert outcome.agreement_holds
        assert outcome.all_correct_decided

    def test_unanimity_under_attack(self):
        outcome = run_prel(
            build_ben_or(5, b=1),
            {pid: 1 for pid in range(4)},
            seed=9,
            byzantine=["vote-flipper"],
        )
        assert outcome.decided_values <= {1}


class TestRandomizedCell:
    """``ben-or`` as a campaign cell: planned scalar for its coin, seeded
    by coordinates, identical at any worker count."""

    SPEC = CampaignSpec(
        name="ben-or-cell",
        algorithms=("ben-or",),
        models=((3, 0, 1), (8, 1, 0)),
        scenarios=(
            ScenarioSpec(name="prel", comm=PREL),
            "fault-free",
            ScenarioSpec(name="prel-eq", byzantine=("equivocator",), comm=PREL),
        ),
        repetitions=4,
        max_phases=60,
        seed=6,
    )

    def test_never_planned_replicate(self):
        for run in self.SPEC.iter_runs():
            plan = plan_for_run(run)
            assert plan.mode == MODE_SCALAR, run
            assert plan.reason == "randomized coin consumes per-run seed"

    def test_identical_at_any_worker_count_and_backend(self):
        inline = run_campaign(self.SPEC, workers=1)
        assert {row["status"] for row in inline} == {"ok", "inapplicable"}
        assert all(row["agreement"] for row in inline if row["status"] == "ok")
        reference = rows_to_jsonl(inline)
        assert rows_to_jsonl(run_campaign(self.SPEC, workers=2)) == reference
        assert (
            rows_to_jsonl(run_campaign(self.SPEC, workers=1, backend="scalar"))
            == reference
        )


class TestVariantBounds:
    def test_benign_bound(self):
        with pytest.raises(ValueError, match="n > 2f"):
            build_ben_or(4, f=2)

    def test_byzantine_bound(self):
        with pytest.raises(ValueError, match="n > 4b"):
            build_ben_or(4, b=1)

    def test_thresholds(self):
        assert build_ben_or(5, f=2).parameters.threshold == 3  # f + 1
        assert build_ben_or(5, b=1).parameters.threshold == 4  # 3b + 1
