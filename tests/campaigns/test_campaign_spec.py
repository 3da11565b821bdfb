"""Campaign spec expansion: grid size, seed derivation, (de)serialization."""

import hashlib
import json

import pytest

from repro.campaigns import BUILTIN_CAMPAIGNS, run_campaign
from repro.campaigns.spec import (
    CampaignSpec,
    NetworkSpec,
    derive_seed,
    load_spec,
    resolve_algorithm,
)
from repro.core.parameters import ConsensusParameters
from repro.core.types import FaultModel
from repro.scenarios import ScenarioSpec
from tests.conftest import jsonl


def small_spec(**overrides):
    kwargs = dict(
        name="unit",
        algorithms=("pbft", "class-2"),
        models=((4, 1, 0), (5, 1, 0)),
        engines=("lockstep", "timed"),
        scenarios=("fault-free", ScenarioSpec(byzantine=("equivocator",))),
        repetitions=3,
        seed=7,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestExpansion:
    def test_cross_product_size(self):
        spec = small_spec()
        runs = list(spec.iter_runs())
        assert len(runs) == 2 * 2 * 2 * 2 * 3 == spec.total_runs

    def test_run_ids_sequential(self):
        runs = list(small_spec().iter_runs())
        assert [run.run_id for run in runs] == list(range(len(runs)))

    def test_all_coordinates_distinct(self):
        runs = list(small_spec().iter_runs())
        assert len({run.key() for run in runs}) == len(runs)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="algorithms"):
            small_spec(algorithms=())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            small_spec(engines=("warp",))

    @pytest.mark.parametrize(
        "overrides,says",
        [
            ({"algorithms": ("pbft", "class-2", "pbft")}, "axis 'algorithms' repeats 'pbft'"),
            ({"models": ((4, 1, 0), (4, 1, 0))}, "axis 'models' repeats (4, 1, 0)"),
            ({"engines": ("timed", "timed")}, "axis 'engines' repeats 'timed'"),
            ({"scenarios": ("worst_case", "worst_case")}, "axis 'scenarios' repeats 'worst_case'"),
            # Another name, the same fault and network: the same run seeds.
            (
                {"scenarios": (
                    ScenarioSpec(byzantine=("equivocator",)),
                    ScenarioSpec(name="again", byzantine=("equivocator",)),
                )},
                "axis 'scenarios' repeats 'again'",
            ),
        ],
    )
    def test_repeated_entry_rejected(self, overrides, says):
        """A repeated entry used to run one sample once per copy."""
        with pytest.raises(ValueError) as excinfo:
            small_spec(**overrides)
        assert str(excinfo.value) == says

    def test_repeated_axes_campaign_exits_2(self, tmp_path, capsys):
        """At the parent this spec wrote 8 rows of one run (rep 0, one
        seed) and reported ``runs 8`` for a one-repetition cell."""
        from repro.cli import main

        path = tmp_path / "repeats.json"
        path.write_text(json.dumps({
            "name": "repeats", "algorithms": ["class-2", "class-2"],
            "models": [[9, 1, 1], [9, 1, 1]],
            "engines": ["lockstep", "lockstep"], "repetitions": 1,
        }))
        out = tmp_path / "out.jsonl"
        assert main(["campaign", "run", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"cannot load campaign spec {path}: axis 'algorithms' repeats 'class-2'\n"
        )
        assert list(tmp_path.iterdir()) == [path]  # nothing was written


class TestSeedDerivation:
    def test_expansion_is_deterministic(self):
        spec = small_spec()
        assert list(spec.iter_runs()) == list(spec.iter_runs())

    def test_seeds_differ_across_runs(self):
        runs = list(small_spec().iter_runs())
        seeds = {run.seed for run in runs}
        assert len(seeds) == len(runs)

    def test_campaign_seed_changes_every_run_seed(self):
        base = {run.run_id: run.seed for run in small_spec().iter_runs()}
        moved = {run.run_id: run.seed for run in small_spec(seed=8).iter_runs()}
        assert all(base[rid] != moved[rid] for rid in base)

    def test_seed_depends_on_coordinates_not_position(self):
        """Adding a repetition must not disturb existing runs' seeds."""
        narrow = {run.key(): run.seed for run in small_spec().iter_runs()}
        wide = {
            run.key(): run.seed for run in small_spec(repetitions=4).iter_runs()
        }
        for key, seed in narrow.items():
            assert wide[key] == seed

    def test_derive_seed_stable(self):
        assert derive_seed(7, "a|b") == derive_seed(7, "a|b")
        assert derive_seed(7, "a|b") != derive_seed(8, "a|b")
        assert derive_seed(7, "a|b") != derive_seed(7, "a|c")


#: Per built-in preset: SHA-256 (first 16 hex digits) of its expansion —
#: ``run_id:seed:key`` per run — and of its canonical result file.  Taken
#: from the commit before ``iter_runs`` started building each run once
#: with a per-cell key prefix; neither may ever move.
PRESET_PINS = {
    "fig1-flv-class1": ("7430e710fe1d3756", "52c959dc9e9af472"),
    "fig2-flv-class2": ("7f6e2daca277e2ff", "bd0acc33a21b00ef"),
    "fig3-flv-class3": ("a9267d4a6774859a", "692a5d581a5bc57f"),
    "gauntlet": ("f97ebddb84469754", "efefaaaf2deb3254"),
    "grid-demo": ("34dd0b449b2fae26", "dc5c23816beedfe6"),
    "latency-gst": ("62ec859d54bb7bf0", "e6dc62dfa7d05050"),
    "table1": ("8c20567b4e55ffdd", "b92f04e56280c9bf"),
}


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPresetPins:
    def test_every_preset_is_pinned(self):
        assert set(PRESET_PINS) == set(BUILTIN_CAMPAIGNS)

    @pytest.mark.parametrize("name", sorted(PRESET_PINS))
    def test_run_ids_seeds_and_result_bytes_do_not_move(self, name):
        spec = BUILTIN_CAMPAIGNS[name]
        expansion = "".join(
            f"{run.run_id}:{run.seed}:{run.key()}\n" for run in spec.iter_runs()
        )
        results = jsonl(run_campaign(spec))
        assert (_sha16(expansion), _sha16(results)) == PRESET_PINS[name]

    def test_run_seed_is_derived_from_its_own_key(self):
        """The per-cell prefix ``iter_runs`` hashes is ``RunSpec.key()``
        minus the repetition: each run's seed is still a function of its
        key alone."""
        spec = small_spec()
        for run in spec.iter_runs():
            assert run.seed == derive_seed(spec.seed, run.key())


class TestSerialization:
    def test_mapping_round_trip(self):
        spec = small_spec()
        assert CampaignSpec.from_mapping(spec.to_mapping()) == spec

    def test_load_json(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec.to_mapping()))
        assert load_spec(path) == spec

    def test_load_toml(self, tmp_path):
        path = tmp_path / "campaign.toml"
        path.write_text(
            'name = "toml-campaign"\n'
            'algorithms = ["pbft"]\n'
            "models = [[4, 1, 0]]\n"
            "repetitions = 2\n"
            "[[scenarios]]\n"
            'byzantine = ["silent"]\n'
        )
        spec = load_spec(path)
        assert spec.name == "toml-campaign"
        assert spec.scenarios == (ScenarioSpec(byzantine=("silent",)),)
        assert spec.total_runs == 2

    @pytest.mark.parametrize(
        "axis,replacement",
        [
            ("faults", 'scenarios = [{byzantine = ["equivocator"]}]'),
            ("networks", "scenarios = [{timing = {gst = 10.0}}]"),
        ],
        ids=["faults", "networks"],
    )
    def test_retired_axis_names_its_replacement(self, axis, replacement):
        with pytest.raises(ValueError) as excinfo:
            CampaignSpec.from_mapping(
                {"name": "x", "algorithms": ["pbft"], "models": [[4, 1, 0]],
                 axis: [{}]}
            )
        message = str(excinfo.value)
        assert message.startswith(f"'{axis}' was removed: write {replacement}")
        assert "\n" not in message

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign keys"):
            CampaignSpec.from_mapping(
                {"name": "x", "algorithms": ["pbft"], "models": [[4, 1, 0]],
                 "typo": 1}
            )

    @pytest.mark.parametrize(
        "key,value,says",
        [
            # Was split into seven one-letter algorithms: 7 error rows, exit 1.
            ("algorithms", "class-1", "'algorithms' must be a list, got 'class-1'"),
            # Was "unknown engine 't'".
            ("engines", "timed", "'engines' must be a list, got 'timed'"),
            # Was a TypeError traceback out of cell_key_prefix, mid-run.
            ("algorithms", [1], "'algorithms' entries must be names, got 1"),
            # Silently ran 2.
            ("repetitions", 2.5, "'repetitions' must be an integer, got 2.5"),
            # Was "'int' object is not iterable".
            ("models", [4, 1, 0],
             "'models' entries must be (n, b, f) integers, got 4"),
        ],
        ids=["algorithms-str", "engines-str", "algorithms-int",
             "repetitions-float", "models-flat"],
    )
    def test_misshapen_value_names_its_key(
        self, tmp_path, capsys, key, value, says
    ):
        from repro.cli import main

        mapping = {"name": "x", "algorithms": ["pbft"], "models": [[4, 1, 0]]}
        mapping[key] = value
        with pytest.raises(ValueError) as excinfo:
            CampaignSpec.from_mapping(mapping)
        assert str(excinfo.value) == says
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(mapping))
        out = tmp_path / "out.jsonl"
        for command in (["run", str(path), "--out", str(out)], ["plan", str(path)]):
            assert main(["campaign", *command]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"cannot load campaign spec {path}: {says}\n"
            assert captured.out == ""
        assert list(tmp_path.iterdir()) == [path]  # nothing was written

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "campaign.yaml"
        path.write_text("name: x\n")
        with pytest.raises(ValueError, match="unsupported spec extension"):
            load_spec(path)


class TestResolveAlgorithm:
    def test_builder_name(self):
        parameters, _config = resolve_algorithm("pbft", FaultModel(4, 1, 0))
        assert isinstance(parameters, ConsensusParameters)
        assert parameters.model.n == 4

    def test_class_name(self):
        parameters, _config = resolve_algorithm("class-1", FaultModel(6, 1, 0))
        assert parameters.model.b == 1

    def test_below_bound_raises_value_error(self):
        with pytest.raises(ValueError):
            resolve_algorithm("class-1", FaultModel(4, 1, 0))

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            resolve_algorithm("nope", FaultModel(4, 1, 0))


class TestNetworkSpec:
    def test_describe_distinguishes_every_field(self):
        """Aliased describe() strings would alias derived seeds and cells."""
        variants = [
            NetworkSpec(),
            NetworkSpec(kind="fixed"),
            NetworkSpec(low=0.6),
            NetworkSpec(high=2.5),
            NetworkSpec(gst=1.0),
            NetworkSpec(delta=3.0),
            NetworkSpec(pre_gst_delay_prob=0.9),
            NetworkSpec(chaos_factor=10.0),
            NetworkSpec(round_duration=3.0),
        ]
        described = {network.describe() for network in variants}
        assert len(described) == len(variants)

    def test_sweep_over_delay_prob_gets_distinct_seeds(self):
        spec = small_spec(
            engines=("timed",),
            scenarios=(
                ScenarioSpec(timing=NetworkSpec(pre_gst_delay_prob=0.1)),
                ScenarioSpec(timing=NetworkSpec(pre_gst_delay_prob=0.9)),
            ),
        )
        runs = list(spec.iter_runs())
        assert len({run.seed for run in runs}) == len(runs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown latency kind"):
            NetworkSpec(kind="warp")

    @pytest.mark.parametrize(
        "field,value,says",
        [
            (name, float("nan"), f"{name} must be a number, got nan")
            for name in ("low", "high", "gst", "delta", "pre_gst_delay_prob",
                         "chaos_factor", "round_duration")
        ] + [
            (name, value, f"{name} must be finite and positive, got {value}")
            for name in ("round_duration", "delta", "chaos_factor", "low", "high")
            for value in (0.0, -1.0, float("inf"))
        ] + [
            ("pre_gst_delay_prob", value,
             f"pre_gst_delay_prob must be in [0, 1], got {value}")
            for value in (-0.1, 1.5)
        ],
    )
    def test_ill_formed_timing_rejected_at_construction(self, field, value, says):
        """Used to load: a nan Δ dropped every message and the run still
        exited 0, an infinite latency bound every pre-GST one; an
        out-of-range probability failed once per run."""
        for kind in ("uniform", "fixed"):
            with pytest.raises(ValueError) as excinfo:
                NetworkSpec(kind=kind, **{field: value})
            assert str(excinfo.value) == says

    @pytest.mark.parametrize(
        "timing,says",
        [
            ('{"round_duration": NaN}', "round_duration must be a number, got nan"),
            # 1e400 parses as inf: it used to run as uniform[0.5,inf],
            # silently dropping every pre-GST message, and exit 0.
            ('{"low": 0.5, "high": 1e400, "gst": 5}',
             "high must be finite and positive, got inf"),
        ],
    )
    def test_ill_formed_timing_campaign_exits_2(self, tmp_path, capsys, timing, says):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "bad", "algorithms": ["pbft"], "models": [[4, 1, 0]],'
            ' "engines": ["timed"], "scenarios": [{"name": "fault-free",'
            f' "timing": {timing}}}]}}'
        )
        out = tmp_path / "out.jsonl"
        assert main(["campaign", "run", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"cannot load campaign spec {path}: {says}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [path]  # nothing was written
