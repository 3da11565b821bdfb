"""Declarative scenario sweeps: spec → parallel runner → result store.

The campaign engine turns one declarative :class:`CampaignSpec` — a
cross-product grid over algorithms, ``(n, b, f)`` resilience points,
*scenarios* (declarative environments from :mod:`repro.scenarios`: Byzantine
placement, crash scripts, communication schedules, timed-network
conditions), engines and repetitions — into per-run :class:`RunSpec`\\ s
with deterministically derived seeds, executes them (inline or on a process
pool) with per-run fault isolation, persists one JSONL row per run, and
aggregates per-cell summaries::

    from repro.campaigns import CampaignSpec, run_campaign
    from repro.campaigns import summarize, format_report

    spec = CampaignSpec(
        name="pbft-frontier",
        algorithms=("pbft",),
        models=((4, 1, 0), (5, 1, 0)),
        scenarios=("fault-free", "worst_case", "partition_heal"),
        repetitions=3,
    )
    rows = run_campaign(spec, workers=4)
    print(format_report(summarize(rows)))

The same campaign seed yields byte-identical results at any worker count.

Execution is **streaming and resumable**: :func:`iter_groups` yields
``(row, coords)`` parts as dispatch chunks complete — a cell proven
seed-independent crosses the pool as one row plus its runs' coordinates —
under a bounded in-flight window (memory O(window), not O(grid));
:func:`iter_campaign` is that stream flattened to rows.  Each part lands in
a crash-safe ``<out>.partial`` checkpoint as its chunk completes, and
``repro campaign run --resume`` skips the recorded ``run_id``\\ s and
completes the file; the finalized snapshot is byte-identical to a
single-shot run at any ``(workers, chunk)`` (see
:mod:`repro.campaigns.runner` for dispatch, :mod:`repro.campaigns.results`
for the serialize-once / byte-offset-merge results path).
"""

from repro.campaigns.aggregate import (
    DEFAULT_GROUP_KEYS,
    CellSummary,
    SummaryFold,
    format_report,
    format_slowest_cells,
    percentile,
    summarize,
)
from repro.campaigns.presets import BUILTIN_CAMPAIGNS
from repro.campaigns.results import (
    ResultSink,
    checkpoint_path,
    finalize_checkpoint,
    iter_rows,
    row_to_json,
    validate_resume,
    write_rows,
)
from repro.campaigns.runner import (
    BACKENDS,
    BATCH_FLOOR,
    execute_chunk,
    execute_run,
    iter_campaign,
    iter_groups,
    resolve_backend,
    run_campaign,
)
from repro.campaigns.spec import (
    CampaignSpec,
    NetworkSpec,
    RunSpec,
    derive_seed,
    load_spec,
    resolve_algorithm,
)
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "BACKENDS",
    "BATCH_FLOOR",
    "BUILTIN_CAMPAIGNS",
    "CampaignSpec",
    "CellSummary",
    "DEFAULT_GROUP_KEYS",
    "NetworkSpec",
    "ResultSink",
    "RunSpec",
    "ScenarioSpec",
    "SummaryFold",
    "checkpoint_path",
    "derive_seed",
    "execute_chunk",
    "execute_run",
    "finalize_checkpoint",
    "format_report",
    "format_slowest_cells",
    "iter_campaign",
    "iter_groups",
    "iter_rows",
    "load_spec",
    "percentile",
    "resolve_algorithm",
    "resolve_backend",
    "row_to_json",
    "run_campaign",
    "summarize",
    "validate_resume",
    "write_rows",
]
