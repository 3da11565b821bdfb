#!/usr/bin/env python3
"""Campaign engine tour: declare a grid, run it in parallel, aggregate.

Run:  PYTHONPATH=src python examples/campaign_sweep.py
"""

from repro.campaigns import (
    BUILTIN_CAMPAIGNS,
    CampaignSpec,
    NetworkSpec,
    ResultSink,
    ScenarioSpec,
    SummaryFold,
    checkpoint_path,
    finalize_checkpoint,
    format_report,
    iter_groups,
)


def main():
    # 1. Declare a sweep: every axis below is crossed into a grid.  A
    #    scenario is one whole environment — fault script, communication
    #    schedule and timed-network conditions together.
    timing = NetworkSpec(gst=5.0, pre_gst_delay_prob=0.6)
    spec = CampaignSpec(
        name="frontier-tour",
        algorithms=("pbft", "mqb", "fab-paxos"),
        models=((4, 1, 0), (5, 1, 0), (6, 1, 0)),
        engines=("lockstep", "timed"),
        scenarios=(
            ScenarioSpec(name="clean", timing=timing),
            ScenarioSpec(
                name="equivocator", byzantine=("equivocator",), timing=timing
            ),
        ),
        repetitions=3,
        seed=2026,
    )
    print(f"campaign {spec.name!r}: {spec.total_runs} runs")

    # 2. Stream the grid through a process pool: `iter_groups` yields
    #    `(row, coords)` parts as chunks complete (bounded in-flight
    #    window, memory O(window) not O(grid)) — `coords` is None for one
    #    row, or lists every run a seed-independent cell's one row stands
    #    for — and each part is appended to a crash-safe checkpoint with
    #    one flush (`lines=True`: the worker that ran a part also
    #    serialized it, the sink writes from that and notes where each
    #    line went, and the finalize merge copies lines by that index — no
    #    row is dumped or parsed twice).  The per-cell report folds in the
    #    same pass (`iter_campaign` is the same stream flattened to rows).
    #    Per-run seeds are derived
    #    from the campaign seed and each run's coordinates, so any worker
    #    count produces a byte-identical final file — and an interrupted
    #    sweep resumes from the checkpoint (`repro campaign run --resume`).
    out = "frontier-tour.results.jsonl"
    fold = SummaryFold()
    # This demo always starts fresh: drop any checkpoint a previously
    # interrupted run left behind (appending to it would let its stale
    # rows win at finalize).  A real resuming caller instead gates on
    # `validate_resume(spec, checkpoint)` and passes the returned index as
    # both `skip_run_ids` and the `ResultSink`'s index — what `repro
    # campaign run --resume` does.
    checkpoint_path(out).unlink(missing_ok=True)
    with ResultSink(checkpoint_path(out)) as sink:
        for row, coords in iter_groups(spec, workers=4, lines=True):
            sink.append(row, coords)
            fold.add(row, 1 if coords is None else len(coords))
    path = finalize_checkpoint(checkpoint_path(out), out, sink.index)
    print(f"wrote {spec.total_runs} rows to {path}\n")

    # 3. Aggregate: per-(algorithm, n, b, f, engine, fault) summaries.
    #    Below-bound cells (fab-paxos at n=4, mqb at n=4, ...) show up in
    #    the `inadm` column (unhostable scenarios separately as `inappl`)
    #    instead of executing.
    print(format_report(fold.summaries()))

    # 4. The same machinery powers the built-in paper campaigns:
    print("\nbuilt-ins:", ", ".join(sorted(BUILTIN_CAMPAIGNS)))


if __name__ == "__main__":
    main()
