"""ScenarioSpec / CommSpec: validation, describe stability, round trips."""

import pytest

from repro.eventsim.network import NetworkSpec
from repro.scenarios.spec import CommSpec, ScenarioSpec, split_values
from repro.core.types import FaultModel


class TestCommSpec:
    def test_defaults_are_reliable(self):
        comm = CommSpec()
        assert comm.kind == "reliable"
        assert comm.describe() == ""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown communication kind"):
            CommSpec(kind="wormhole")

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            CommSpec(kind="good-bad", schedule="sometimes")

    def test_unknown_bad_behavior_rejected(self):
        with pytest.raises(ValueError, match="unknown bad behaviour"):
            CommSpec(kind="good-bad", bad="gremlins")

    def test_drop_prob_bounds(self):
        with pytest.raises(ValueError, match="drop_prob"):
            CommSpec(kind="lossy", drop_prob=1.5)

    def test_describe_distinguishes_variants(self):
        variants = [
            CommSpec(kind="lossy", drop_prob=0.3),
            CommSpec(kind="lossy", drop_prob=0.4),
            CommSpec(kind="async-prel"),
            CommSpec(kind="silent"),
            CommSpec(kind="good-bad", schedule="after", good_from=5),
            CommSpec(kind="good-bad", schedule="after", good_from=6),
            CommSpec(kind="good-bad", schedule="after", good_from=5,
                     bad="partition"),
            CommSpec(kind="good-bad", schedule="after", good_from=5,
                     bad="silence"),
            CommSpec(kind="good-bad", schedule="alternating", good_len=2,
                     bad_len=1),
            CommSpec(kind="good-bad", schedule="windows",
                     windows=((3, 5), (9, 12))),
        ]
        described = {comm.describe() for comm in variants}
        assert len(described) == len(variants)

    def test_partition_groups_never_alias(self):
        """Multi-digit pids must not collapse two partitions into one
        coordinate string (seed derivation hashes it)."""
        a = CommSpec(kind="good-bad", bad="partition", groups=((0, 1), (12,)))
        b = CommSpec(kind="good-bad", bad="partition", groups=((0, 1), (1, 2)))
        assert a.describe() != b.describe()

    def test_lists_frozen_to_tuples(self):
        comm = CommSpec(kind="good-bad", schedule="windows",
                        windows=[[3, 5]], groups=[[0, 1], [2, 3]])
        assert comm.windows == ((3, 5),)
        assert comm.groups == ((0, 1), (2, 3))
        hash(comm)  # stays usable as a frozen coordinate

    def test_empty_windows_list_frozen_too(self):
        # Regression: JSON loaders hand in ``windows=[]`` (the empty
        # tuple's round-trip), which must freeze like any other list or
        # the spec becomes unhashable and equal-looking specs diverge.
        comm = CommSpec(windows=[])
        assert comm.windows == ()
        assert comm == CommSpec()
        hash(comm)


    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"windows": [[5, 2]]}, "windows must be"),
            ({"windows": [[0, 3]]}, "windows must be"),
            ({"windows": "ab"}, "windows must be"),
            ({"windows": [[1, 2, 3]]}, "windows must be"),
            ({"windows": [[1.5, 2]]}, "windows must be"),
            ({"windows": [5]}, "windows must be"),
            ({"good_len": 0}, "good_len"),
            ({"bad_len": -1}, "bad_len"),
        ],
    )
    def test_ill_formed_schedule_rejected_at_construction(self, fields, message):
        """Not first inside ``compile_scenario``, where a campaign would turn
        it into a grid of ``error`` rows."""
        with pytest.raises(ValueError, match=message):
            CommSpec(kind="good-bad", **fields)

    def test_tuple_of_list_windows_frozen_too(self):
        comm = CommSpec(kind="good-bad", schedule="windows", windows=([3, 5],))
        assert comm.windows == ((3, 5),)
        hash(comm)


class TestNormalForm:
    """``reliable`` / ``lossy`` / ``silent`` are points of ``good-bad``; the
    facts every reader below the spec asks instead of switching on kind."""

    def test_regime_of_each_kind(self):
        assert CommSpec().regime()[0] == "always"
        assert CommSpec(kind="lossy").regime() == ("never", "drop")
        assert CommSpec(kind="silent").regime() == ("never", "silence")
        assert CommSpec(
            kind="good-bad", schedule="windows", windows=((2, 3),), bad="partition"
        ).regime() == ("windows", "partition")

    def test_only_async_prel_is_not_per_edge(self):
        assert not CommSpec(kind="async-prel").per_edge
        assert all(
            CommSpec(kind=kind).per_edge
            for kind in ("reliable", "good-bad", "lossy", "silent")
        )

    @pytest.mark.parametrize(
        "comm,never_bad,draws_coins,eventually_good",
        [
            (CommSpec(), True, False, True),
            (CommSpec(kind="lossy"), False, True, False),
            (CommSpec(kind="silent"), False, False, False),
            (CommSpec(kind="async-prel"), False, False, False),
            (CommSpec(kind="good-bad", schedule="always"), True, False, True),
            (CommSpec(kind="good-bad", good_from=1), True, False, True),
            (CommSpec(kind="good-bad", good_from=2), False, True, True),
            (CommSpec(kind="good-bad", good_from=2, bad="partition"),
             False, False, True),
            (CommSpec(kind="good-bad", good_from=2, bad="silence"),
             False, False, True),
            (CommSpec(kind="good-bad", schedule="alternating", good_len=2,
                      bad_len=0), True, False, False),
            (CommSpec(kind="good-bad", schedule="alternating", good_len=2,
                      bad_len=1), False, True, False),
            (CommSpec(kind="good-bad", schedule="windows", windows=((1, 9),)),
             False, True, False),
            (CommSpec(kind="good-bad", schedule="never", bad="silence"),
             False, False, False),
        ],
    )
    def test_facts(self, comm, never_bad, draws_coins, eventually_good):
        assert comm.never_bad() is never_bad
        assert comm.draws_coins() is draws_coins
        assert comm.eventually_good() is eventually_good

    def test_normal_form_does_not_alias_coordinates(self):
        """Equal regimes stay distinct specs: ``describe`` keys seeds."""
        lossy = CommSpec(kind="lossy", drop_prob=0.3)
        never = CommSpec(kind="good-bad", schedule="never", drop_prob=0.3)
        assert lossy.regime() == never.regime()
        assert lossy != never and lossy.describe() != never.describe()


class TestScenarioSpec:
    def test_byzantine_placement_cycles_strategies(self):
        spec = ScenarioSpec(byzantine=("a", "b"))
        placement = spec.byzantine_map(FaultModel(9, 3, 0))
        assert placement == {8: "a", 7: "b", 6: "a"}

    def test_byzantine_count_limits_slots(self):
        spec = ScenarioSpec(byzantine=("a",), byzantine_count=1)
        assert spec.byzantine_map(FaultModel(9, 3, 0)) == {8: "a"}

    def test_count_without_strategies_rejected(self):
        with pytest.raises(ValueError, match="byzantine_count"):
            ScenarioSpec(byzantine_count=2)

    def test_crash_validation(self):
        with pytest.raises(ValueError, match="crashes"):
            ScenarioSpec(crashes=-2)
        with pytest.raises(ValueError, match="crash_round"):
            ScenarioSpec(crashes=1, crash_round=0)

    def test_mapping_round_trip(self):
        spec = ScenarioSpec(
            name="rt",
            byzantine=("equivocator", "silent"),
            byzantine_count=2,
            crashes=1,
            crash_round=3,
            clean=False,
            comm=CommSpec(kind="good-bad", schedule="windows",
                          windows=((2, 4),), bad="partition",
                          groups=((0, 1), (2, 3))),
            timing=NetworkSpec(gst=5.0),
            max_phases=20,
        )
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec

    def test_mapping_survives_json(self):
        import json

        spec = ScenarioSpec(
            byzantine=("silent",),
            comm=CommSpec(kind="good-bad", good_from=4,
                          windows=((1, 2),), groups=((0,), (1, 2))),
        )
        rehydrated = ScenarioSpec.from_mapping(
            json.loads(json.dumps(spec.to_mapping()))
        )
        assert rehydrated == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioSpec.from_mapping({"typo": 1})

    @pytest.mark.parametrize(
        "byzantine", ["equivocator", ["equivocator", 3], 3, {"silent": 1}]
    )
    def test_byzantine_must_be_a_list_of_names(self, byzantine):
        """A bare string (the retired fault-script spelling) must not
        freeze into one strategy per letter."""
        with pytest.raises(ValueError, match="list of strategy names"):
            ScenarioSpec.from_mapping({"byzantine": byzantine})
        with pytest.raises(ValueError, match="list of strategy names"):
            ScenarioSpec(byzantine=byzantine)

    def test_byzantine_list_frozen_to_tuple(self):
        spec = ScenarioSpec.from_mapping({"byzantine": ["silent"]})
        assert spec.byzantine == ("silent",)
        hash(spec)


class TestDescribeStability:
    """The coordinate strings are seed-derivation inputs: campaign seeds
    hash them, so they may never move."""

    def test_fault_strings(self):
        assert ScenarioSpec().describe_fault() == "fault-free"
        assert ScenarioSpec(byzantine=("silent",)).describe_fault() == "byz:silent"
        assert ScenarioSpec(crashes=-1).describe_fault() == "crash:f@1"
        assert (
            ScenarioSpec(byzantine=("noise",), crashes=2, crash_round=3,
                         clean=False).describe_fault()
            == "byz:noise+crash!:2@3"
        )

    def test_network_string_is_the_timing_one(self):
        network = NetworkSpec(gst=4.0, pre_gst_delay_prob=0.6)
        scenario = ScenarioSpec(timing=network)
        assert scenario.describe_network() == network.describe()

    def test_crash_count(self):
        model = FaultModel(5, 0, 2)
        assert ScenarioSpec(crashes=-1).crash_count(model) == 2
        assert ScenarioSpec(crashes=1).crash_count(model) == 1


def test_split_values_skips_byzantine():
    model = FaultModel(4, 1, 0)
    values = split_values(model, {3: "equivocator"})
    assert values == {0: "v0", 1: "v1", 2: "v0"}
