"""The part of the measured path that needs :mod:`repro`: inputs and oracle.

Run as ``python -m e2e.inproc generate|check <request.json>`` by the driver
(one process per call, so the driver never grows), or imported by the smoke
test.  Each function takes and returns plain JSON-able values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from e2e.workloads import BY_NAME, GRIDS, SMR_RATE, Sizes


def campaign_mapping(grid: str, seed: int, sizes: Sizes) -> Dict[str, object]:
    """A derived grid: the built-in gauntlet, filtered and resized."""
    from repro.campaigns import BUILTIN_CAMPAIGNS

    name, scenarios, models, reps_field = GRIDS[grid]
    mapping = BUILTIN_CAMPAIGNS["gauntlet"].to_mapping()
    mapping["name"] = name
    mapping["scenarios"] = [
        scenario for scenario in mapping["scenarios"]
        if scenario["name"] in scenarios
    ]
    mapping["models"] = [list(model) for model in models]
    mapping["repetitions"] = getattr(sizes, reps_field)
    mapping["seed"] = seed
    return mapping


def campaign_spec(grid: str, seed: int, mapping: Optional[Dict[str, object]]):
    """The :class:`CampaignSpec` a campaign workload's command runs."""
    from dataclasses import replace

    from repro.campaigns import BUILTIN_CAMPAIGNS, CampaignSpec

    if grid == "gauntlet":
        return replace(BUILTIN_CAMPAIGNS["gauntlet"], seed=seed)
    return CampaignSpec.from_mapping(mapping)


def generate(workload_name: str, seed: int, sizes: Sizes) -> Dict[str, object]:
    """One workload's inputs, a pure function of ``seed`` and ``sizes``.

    ``spec`` is the campaign mapping written as ``spec.json`` (``None``
    when the command needs no file); ``items`` is the planned total the
    outputs are checked against, computed here and not by the launch;
    ``space`` is the fingerprint of the fuzzer's default search space.
    """
    workload = BY_NAME[workload_name]
    spec = space = None
    if workload.kind == "campaign":
        if workload.grid != "gauntlet":
            spec = campaign_mapping(workload.grid, seed, sizes)
        items = campaign_spec(workload.grid, seed, spec).total_runs
    elif workload.kind == "fuzz":
        from repro.fuzz import FuzzSpace

        items = sizes.fuzz_budget
        space = FuzzSpace().fingerprint()  # the default space the run must report
    else:
        from repro.smr import WorkloadSpec

        arrivals = WorkloadSpec(
            clients=4, rate=SMR_RATE, duration=sizes.smr_duration,
            arrival="poisson", seed=seed,
        ).arrivals()
        items = sum(1 for _ in arrivals)
    return {
        "workload": workload_name, "seed": seed, "items": items,
        "spec": spec, "space": space,
    }


def check_campaign(
    inputs: Dict[str, object], results: str, oracle_rows: int
) -> Dict[str, object]:
    """Check a finalized campaign file against the plan and the scalar oracle.

    Every ``run_id`` of the grid must be present once, in order; no row
    may be an ``error``; and ``oracle_rows`` evenly strided runs are
    re-executed through :func:`repro.campaigns.runner.execute_run` and
    compared byte for byte with the file's lines.
    """
    from repro.campaigns.results import row_to_json
    from repro.campaigns.runner import execute_run

    workload = BY_NAME[inputs["workload"]]
    spec = campaign_spec(workload.grid, inputs["seed"], inputs["spec"])
    total = int(inputs["items"])
    lines = Path(results).read_text(encoding="utf-8").splitlines()
    failures: List[str] = []
    error_rows = 0  # status "error", or not JSON at all
    misplaced = 0  # line N does not hold run_id N
    for index, line in enumerate(lines):
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            error_rows += 1
            continue
        if row.get("run_id") != index:
            misplaced += 1
        if row.get("status") == "error":
            error_rows += 1
    missing = max(0, total - len(lines)) + misplaced
    if len(lines) != total:
        failures.append(f"{len(lines)} rows in file, {total} planned")
    if misplaced:
        failures.append(f"{misplaced} line(s) out of run_id order")
    if error_rows:
        failures.append(f"{error_rows} error or unreadable row(s)")
    stride = max(1, total // oracle_rows)
    wanted = set(range(0, total, stride)[:oracle_rows])
    mismatches = 0
    for run in spec.iter_runs():
        if run.run_id in wanted:
            expected = row_to_json(execute_run(run))
            if run.run_id >= len(lines) or lines[run.run_id] != expected:
                mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} of {len(wanted)} oracle rows differ")
    return {
        "rows": len(lines),
        "error_rows": error_rows,
        "missing": missing,
        "oracle_checked": len(wanted),
        "oracle_mismatches": mismatches,
        "failures": failures,
    }


def main(argv: List[str]) -> int:
    command, request_path = argv
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    if command == "generate":
        result = generate(
            request["workload"], request["seed"], Sizes(**request["sizes"])
        )
    elif command == "check":
        result = check_campaign(
            request["inputs"], request["results"], request["oracle_rows"]
        )
    else:
        raise SystemExit(f"unknown command {command!r}")
    json.dump(result, sys.stdout, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
