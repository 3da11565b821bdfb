"""Tier-1 smoke test of the end-to-end benchmark (``--smoke`` sizes).

One ``run.py --smoke`` subprocess covers the report schema and every
workload and metric name; the rest exercises the pieces the smoke sizes
skip (probe parsing, set comparison) and the two failure paths the
benchmark must survive: a corrupted output row and a vanished wrap target.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import inproc, run, trace
from e2e import workloads as W

REPO = Path(__file__).resolve().parents[2]
#: Per-layer metrics measured by extra launches that ``--smoke`` skips.
PROBED = {
    "cli.start_s", "cli.import_s", "campaigns.runner.first_row_s",
    "campaigns.runner.worker_busy_share", "smr.max_rate_ok",
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    done = subprocess.run(
        [sys.executable, str(REPO / "benchmarks/e2e/run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text(encoding="utf-8")), done.stdout


def test_report_names_every_workload_and_metric(smoke):
    report, printed = smoke
    assert report["schema"] == run.REPORT_SCHEMA
    assert {"nproc", "python", "numpy", "loadavg_start", "loadavg_end", "commit", "seed"} <= set(
        report["environment"]
    )
    assert sorted(report["workloads"]) == sorted(workload.name for workload in W.WORKLOADS)
    end_to_end = [metric.name for metric in W.END_TO_END + W.REPORT_ONLY]
    per_layer = [metric.name for metric in W.PER_LAYER]
    for name, entry in report["workloads"].items():
        assert entry["correct"], (name, entry["failures"])
        assert sorted(entry["end_to_end"]) == sorted(end_to_end)
        assert sorted(entry["per_layer"]) == sorted(per_layer)
        assert entry["end_to_end"]["failed_share"] == 0
        assert all(entry["end_to_end"][metric.name] > 0 for metric in W.END_TO_END)
        for spread in entry["detail"].values():
            assert set(spread) == {"min", "median", "max", "k"}
        assert entry["per_layer"]["trace.coverage"] >= 0.5  # ≥ 0.90 at full size
        assert f"== {name}" in printed
    for metric in W.END_TO_END + W.REPORT_ONLY:
        assert f"{metric.name} " in printed and metric.unit in printed
    serve = report["workloads"]["smr-serve"]["end_to_end"]
    assert serve["smr_latency_p50"] > 0 and serve["smr_latency_p99"] >= serve["smr_latency_p50"]
    # Every per-layer metric shows up on some workload's path.
    for metric in per_layer:
        seen = [entry["per_layer"][metric] for entry in report["workloads"].values()]
        assert metric in PROBED or any(value is not None for value in seen), metric


def test_benchmark_json_lists_the_same_tables():
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == [w.name for w in W.WORKLOADS]
    for key, table in (("end_to_end", W.END_TO_END), ("per_layer", W.PER_LAYER)):
        assert [
            (m["name"], m["unit"], m["better"]) for m in declared[key]
        ] == [(m.name, m.unit, m.better) for m in table]
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_inputs_are_a_pure_function_of_the_seed():
    for name in ("campaign-replicate", "campaign-stochastic", "fuzz-search", "smr-serve"):
        first = json.dumps(inproc.generate(name, 11, W.SMOKE), sort_keys=True)
        again = json.dumps(inproc.generate(name, 11, W.SMOKE), sort_keys=True)
        other = json.dumps(inproc.generate(name, 12, W.SMOKE), sort_keys=True)
        assert first == again
        assert first != other


def _run_small_campaign(work: Path):
    from repro.cli import main

    inputs = inproc.generate("campaign-small-cold", 11, W.SMOKE)
    args = W.cli_args(W.BY_NAME["campaign-small-cold"], 11, W.SMOKE, work, workers=1)
    return inputs, args, main


def test_gate_fails_on_a_corrupted_row(tmp_path, capsys):
    inputs, args, main = _run_small_campaign(tmp_path)
    assert main(args) == 0
    capsys.readouterr()
    results = tmp_path / "results.jsonl"
    clean = inproc.check_campaign(inputs, str(results), W.SMOKE.oracle_rows)
    assert clean["failures"] == [] and clean["oracle_mismatches"] == 0
    assert clean["oracle_checked"] == W.SMOKE.oracle_rows

    lines = results.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])
    row["messages_sent"] = (row["messages_sent"] or 0) + 1
    lines[0] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corrupted = inproc.check_campaign(inputs, str(results), W.SMOKE.oracle_rows)
    assert corrupted["oracle_mismatches"] == 1
    assert corrupted["failures"]

    results.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert inproc.check_campaign(inputs, str(results), W.SMOKE.oracle_rows)["missing"] == 1


def test_missing_wrap_target_degrades_to_null(tmp_path):
    inputs, args, _main = _run_small_campaign(tmp_path)
    workload = W.BY_NAME["campaign-small-cold"]
    whole = trace.trace_workload(workload, inputs, args, tmp_path)
    assert whole["missing"] == [] and whole["rc"] == 0

    # A later refactor renames the runner's entry points: the benchmark
    # must keep running, report null for them and show the lost coverage.
    gone = {"iter_campaign", "execute_chunk", "execute_run", "run_batch"}
    targets = [
        target[:2] + (f"renamed_{target[2]}",) + target[3:] if target[2] in gone else target
        for target in trace.targets_for("campaign")
    ]
    (tmp_path / "results.jsonl").unlink()
    partial = trace.trace_workload(workload, inputs, args, tmp_path, targets=targets)
    assert partial["rc"] == 0
    assert len(partial["missing"]) == len(gone)
    assert "campaigns.runner.execute_s" not in partial["metrics"]
    assert "campaigns.runner.chunks" not in partial["metrics"]
    assert partial["metrics"]["campaigns.results.append_s"] > 0
    assert partial["metrics"]["trace.coverage"] < whole["metrics"]["trace.coverage"]
    # Originals are back in place afterwards.
    import repro.campaigns

    assert repro.campaigns.iter_campaign.__module__ == "repro.campaigns.runner"
    assert not hasattr(repro.campaigns.iter_campaign, "__wrapped__")


def test_pool_figures_from_an_events_sidecar(tmp_path):
    events = tmp_path / "events.jsonl"
    events.write_text(
        '{"kind":"campaign_started","ts":100.0}\n'
        '{"kind":"row_completed","ts":100.4,"duration_ms":300.0}\n'
        '{"kind":"row_completed","ts":100.9,"duration_ms":500.0}\n',
        encoding="utf-8",
    )
    done = run.Launch(rc=0, wall_s=1.0, cpu_s=0.0, peak_rss_mb=0.0, started_at=100.0)
    figures = run.pool_figures(events, done, workers=2)
    assert figures["campaigns.runner.first_row_s"] == pytest.approx(0.4)
    assert figures["campaigns.runner.worker_busy_share"] == pytest.approx(0.4)


def test_ladder_rung_needs_latency_commit_and_no_backlog():
    good = {"stalled": False, "offered": 10, "committed_commands": 10,
            "latency_p99": 9.0, "simulated_duration": 105.0}
    assert run.rate_ok(good, duration=100.0)
    assert not run.rate_ok({**good, "latency_p99": 10.5}, duration=100.0)
    assert not run.rate_ok({**good, "committed_commands": 9}, duration=100.0)
    assert not run.rate_ok({**good, "simulated_duration": 130.0}, duration=100.0)


def test_sets_compare_by_bound_and_by_equality():
    def one(wall, rounds, sha="aa"):
        return {"workloads": {"w": {
            "end_to_end": {"wall_s": wall, "setup_s": 0.10, "smr_latency_p50": 3.5},
            "per_layer": {"engine.kernel.rounds": rounds},
            "sha256": sha,
        }}}

    limits = {"wall_s": 0.1, "setup_s": 0.25}
    assert run.compare_sets(one(1.0, 7), one(1.08, 7), limits)["ok"]
    assert not run.compare_sets(one(1.0, 7), one(1.2, 7), limits)["ok"]
    assert not run.compare_sets(one(1.0, 7), one(1.0, 8), limits)["ok"]
    assert not run.compare_sets(one(1.0, 7), one(1.0, 7, sha="bb"), limits)["ok"]
