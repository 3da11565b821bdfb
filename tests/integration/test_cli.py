"""The repro.cli entry point."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "pbft" in out and "equivocator" in out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "n>5b+3f" in out and "MQB" in out


def test_retired_commands_are_invalid_choices(capsys):
    """``run`` / ``sweep`` / ``ben-or`` went with the private assembly paths
    behind them; ``scenario run`` / ``campaign run`` are the one door."""
    for argv in (
        ["run", "--algorithm", "pbft", "--n", "4"],
        ["sweep", "--class", "3"],
        ["ben-or", "--n", "3"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err


def test_scenario_run_quick_start(capsys):
    """The README quick-start line: PBFT at n = 4 under the worst-case
    scenario (an equivocator on the one Byzantine slot)."""
    argv = ["scenario", "run", "worst_case", "--algorithm", "pbft",
            "--n", "4", "--b", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "agreement   : True" in out
    assert "termination : True" in out


def test_scenario_run_ben_or_is_seeded(capsys):
    """``ben-or`` through the front door runs with coins: same seed, same
    output; and it is admitted as a randomized cell."""
    from repro.engine.cell import admit

    assert admit("ben-or", 5, 0, 2)[2].coin is not None
    argv = ["scenario", "run", "fault-free", "--algorithm", "ben-or",
            "--n", "5", "--f", "2", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "agreement   : True" in first


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["scenario", "run", "fault-free", "--n", "4"], "cannot build nope: "),
        (["profile", "fault-free", "--n", "4"], "cannot build nope: "),
        (["profile", "fault-free", "--n", "4", "--batch", "4"], "cannot build nope: "),
        (["smr", "serve"], "cannot serve: "),
    ],
)
def test_unknown_algorithm_message_is_the_message_not_its_repr(
    capsys, argv, prefix
):
    """``str(KeyError)`` is the repr of its argument; the CLI prints the
    argument."""
    assert main([*argv, "--algorithm", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix + "unknown algorithm 'nope'; known: ['")
    assert '"' not in err and "\\" not in err
    assert len(err.splitlines()) == 1


def test_scenario_run_checks_the_hosted_envelope(capsys):
    """A single run is admitted like a campaign cell: PBFT hosts no crash
    faults, so asking for f = 2 is refused rather than silently dropped."""
    argv = ["scenario", "run", "fault-free", "--algorithm", "pbft",
            "--n", "7", "--b", "2", "--f", "2"]
    assert main(argv) == 2
    assert "cannot build pbft: pbft hosts (b=2, f=0)" in capsys.readouterr().err


def test_profile_batch_admits_its_cell_first(capsys):
    """``--batch`` used to print four ``inadmissible`` rows and exit 0."""
    argv = ["profile", "fault-free", "--algorithm", "pbft", "--n", "3",
            "--b", "1", "--batch", "4"]
    assert main(argv) == 2
    assert "cannot build pbft: PBFT requires n > 3b" in capsys.readouterr().err


def test_smr_serve(capsys):
    code = main([
        "smr", "serve", "--rate", "80", "--duration", "1",
        "--batch", "8", "--depth", "4", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "committed" in out
    assert "p50" in out and "p99" in out
    assert "digests agree True" in out


def test_smr_serve_inapplicable(capsys):
    code = main([
        "smr", "serve", "--algorithm", "pbft", "--n", "7", "--b", "2",
        "--f", "2", "--rate", "10", "--duration", "0.2",
    ])
    assert code == 2
    # The admission step's verdict, worded as for any other rejected cell.
    assert "cannot serve: pbft hosts (b=2, f=0)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["serve", "--rate", "0"], "--rate"),
        (["serve", "--rate", "-3"], "--rate"),
        (["serve", "--duration", "0"], "--duration"),
        (["sweep", "--rates", "0"], "--rates"),
        (["sweep", "--rates", "50,nan"], "--rates"),
        (["sweep", "--duration", "0"], "--duration"),
    ],
)
def test_smr_rejects_non_positive_load(capsys, argv, flag):
    # Each died with a ValueError traceback out of WorkloadSpec.
    with pytest.raises(SystemExit) as exit_info:
        main(["smr"] + argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be finite and > 0" in err
    assert "usage:" in err and "Traceback" not in err


def test_smr_sweep_rejects_an_empty_rate_list(capsys):
    """``--rates ,`` used to run an empty sweep and exit 0."""
    with pytest.raises(SystemExit) as exit_info:
        main(["smr", "sweep", "--rates", ","])
    assert exit_info.value.code == 2
    assert "argument --rates: needs at least one rate" in capsys.readouterr().err


def test_smr_sweep_rejects_an_empty_scenario_list(capsys):
    """``--scenarios ,,`` used to print a header-only table and exit 0."""
    with pytest.raises(SystemExit) as exit_info:
        main(["smr", "sweep", "--scenarios", ",,"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --scenarios: needs at least one scenario name" in err


@pytest.mark.parametrize(
    "flag,value,repeated",
    [
        ("--rates", "8,8", "8"),
        # Rates compare as their ``rate{:g}`` cell coordinate.
        ("--rates", "8,8.0", "8"),
        ("--rates", "50,8,0.5e2", "50"),
        ("--scenarios", "worst_case,worst_case", "worst_case"),
    ],
)
def test_smr_sweep_rejects_a_repeated_entry(capsys, flag, value, repeated):
    """A repeat used to run one cell twice under the same seeds and write
    two rows with one ``cell`` coordinate."""
    with pytest.raises(SystemExit) as exit_info:
        main(["smr", "sweep", flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: repeats {repeated}\n" in err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "missing-root"])
def test_smr_sweep_probes_out_before_the_first_cell(tmp_path, capsys, where):
    """An unwritable ``--out`` used to run every cell, then die in the
    final write with a traceback."""
    out = tmp_path if where == "directory" else "/proc/nope/x.jsonl"
    code = main(["smr", "sweep", "--n", "4", "--b", "1", "--algorithm",
                 "pbft", "--duration", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no cell ran
    (line,) = captured.err.splitlines()
    assert line.startswith(f"cannot write {out}: ")


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "command",
    [
        ["scenario", "run", "fault-free", "--algorithm", "pbft", "--n", "4",
         "--b", "1"],
        ["profile", "fault-free", "--algorithm", "pbft", "--n", "4", "--b", "1"],
        ["smr", "serve"],
        ["smr", "sweep"],
    ],
    ids=["scenario-run", "profile", "smr-serve", "smr-sweep"],
)
def test_max_phases_must_be_positive(capsys, command, value):
    # A negative horizon died in a kernel ValueError traceback (or was
    # reported as a bad ``max_rounds``); zero ran undecidable instances.
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--max-phases", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --max-phases: must be ≥ 1, got {value}" in err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--duration", "nan"],  # ``now > nan`` is never true
        ["serve", "--rate", "inf", "--duration", "1"],  # clock never advances
    ],
)
def test_smr_non_finite_load_exits_instead_of_hanging(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "smr"] + argv,
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "must be finite and > 0" in done.stderr
    assert "Traceback" not in done.stderr


def test_smr_serve_says_which_tier_served(capsys):
    common = ["--rate", "80", "--duration", "1", "--seed", "3"]
    assert main(["smr", "serve", "--scenario", "worst_case"] + common) == 0
    out = capsys.readouterr().out
    assert "  tier        : replicate — deterministic lockstep delivery (1 instance run, " in out
    assert "slots replicated)" in out
    assert "latency split: queue wait " in out and "apply wait " in out
    assert main(["smr", "serve", "--scenario", "lossy_channel"] + common) == 0
    out = capsys.readouterr().out
    assert "  tier        : scalar — " in out and "replicated" not in out


@pytest.mark.parametrize(
    "typo, message",
    [
        (["--scenarios", "fault-free,nope"], "unknown scenario 'nope'; known: ['"),
        (["--algorithm", "nope"], "cannot serve: unknown algorithm 'nope'; known: ['"),
    ],
    ids=["scenario", "algorithm"],
)
def test_smr_sweep_typo_is_a_usage_error(capsys, tmp_path, typo, message):
    """A misspelt name exits 2 before any cell runs, as ``smr serve`` does;
    it used to print every cell as ``inapplicable`` and exit 0."""
    out_path = tmp_path / "serve.jsonl"
    argv = ["smr", "sweep", "--duration", "0.5", "--rates", "20",
            "--out", str(out_path), *typo]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert len(captured.err.splitlines()) == 1
    assert not out_path.exists()


def test_smr_sweep(capsys, tmp_path):
    out_path = tmp_path / "serve.jsonl"
    code = main([
        "smr", "sweep", "--duration", "0.5", "--rates", "20,40",
        "--scenarios", "fault-free,worst_case", "--seed", "3",
        "--out", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "serve|worst_case|rate40" in out
    assert out_path.read_text().count("\n") == 4


def test_campaign_plan_classifies_cells_without_executing(capsys):
    assert main(["campaign", "plan", "gauntlet"]) == 0
    out = capsys.readouterr().out
    # Every tier the gauntlet exercises appears, with its reason text.
    assert "campaign 'gauntlet':" in out
    assert "columnar-state" in out
    assert "replicate" in out
    assert "algorithm/model resolution failed" in out
    assert "array program" in out
    # The classification is a plan, not an execution: tier counts cover
    # the whole grid.
    assert "tiers: columnar-state 30  replicate 50  scalar 16" in out
    assert "requires n > 5b + 3f" not in out  # clause lists are opt-in


def test_campaign_plan_explain_lists_every_failed_clause(capsys, tmp_path):
    assert main(["campaign", "plan", "gauntlet"]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(["campaign", "plan", "gauntlet", "--explain"]) == 0
    explained = capsys.readouterr().out.splitlines()
    # The default table — rows, one-line reasons, tally — is untouched;
    # --explain only adds clause lines under scalar cells.
    clauses = [line for line in explained if line.startswith("      - ")]
    assert [line for line in explained if line not in clauses] == plain
    # The only scalar cells left: 16 class-1 (7,1,1) resolution failures.
    assert len(clauses) == 16
    assert all("requires n > 5b + 3f" in line for line in clauses)

    # A seed-dependent cell that fails two clauses lists both.
    mapping = {
        "name": "two-clauses", "algorithms": ["class-2"], "models": [[9, 1, 1]],
        "engines": ["lockstep"], "repetitions": 4,
        "scenarios": [{"name": "prel_crash", "crashes": 1,
                       "comm": {"kind": "async-prel"}}],
    }
    path = tmp_path / "two-clauses.json"
    path.write_text(json.dumps(mapping))
    assert main(["campaign", "plan", str(path), "--explain"]) == 0
    assert [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("      - ")
    ] == [
        "      - crash script (the array program has no crash schedule)",
        "      - comm kind 'async-prel' has no per-edge mask form",
    ]


def test_profile_batch_surfaces_demotion_reason(capsys, monkeypatch):
    cell = ["profile", "lossy_channel", "--algorithm", "class-2", "--n", "9",
            "--b", "1", "--f", "1", "--engine", "lockstep", "--batch", "6"]
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert main(cell) == 0
    out = capsys.readouterr().out
    assert "plan: columnar-state" in out
    assert "rows: scalar 6" in out
    assert "batch.demoted[numpy absent]=6" in out
    assert "batch.fallback_scalar=6" in out


def test_campaign_plan_unknown_spec(capsys):
    assert main(["campaign", "plan", "no-such-campaign"]) == 2
    assert "no such campaign" in capsys.readouterr().err
