"""Grouped summaries over campaign result rows.

:func:`summarize` folds an *iterable* of JSONL rows — a list, or the live
stream out of :func:`~repro.campaigns.runner.iter_campaign` /
:func:`~repro.campaigns.results.iter_rows` — into per-cell
:class:`CellSummary` records, grouped by ``(algorithm, n, b, f, engine,
fault)`` by default.  The fold is single-pass: each row updates its cell's
:class:`SummaryFold` accumulator (counts, sums, and one latency float per
timed ok row for the exact percentiles) and is then released, so report
memory scales with the number of *cells* plus one float per latency sample
— never with whole-row lists.  :func:`format_report` renders the familiar
monospace table.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.invariants import SAFETY_PROPERTIES
from repro.analysis.reporting import format_float, format_rate, format_table
from repro.observability import telemetry

Row = Dict[str, object]

DEFAULT_GROUP_KEYS: Tuple[str, ...] = (
    "algorithm", "n", "b", "f", "engine", "fault",
)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Linear-interpolation percentile (``q`` in [0, 1]); None when empty."""
    return telemetry.percentile(values, q) if values else None


@dataclass(frozen=True)
class CellSummary:
    """Aggregates for one group of rows (one cell of the report)."""

    key: Tuple[object, ...]
    runs: int
    ok: int
    errors: int
    inadmissible: int
    inapplicable: int
    agreement_violations: int
    validity_violations: int
    unanimity_violations: int
    termination_failures: int
    mean_phases: Optional[float]
    mean_messages: Optional[float]
    mean_latency: Optional[float]
    p50_latency: Optional[float]
    p99_latency: Optional[float]
    #: Wall-clock duration of the cell's runs (from the volatile
    #: ``_elapsed_ms`` row field — present when the campaign ran with
    #: timings, or when an events sidecar was joined back in; ``None``
    #: otherwise).  Counts every status: an error row's wall time is real.
    mean_wall_ms: Optional[float] = None
    max_wall_ms: Optional[float] = None
    total_wall_ms: float = 0.0

    @property
    def safety_violations(self) -> int:
        """Violations of any safety property (agreement/validity/unanimity)."""
        return sum(getattr(self, f"{prop}_violations") for prop in SAFETY_PROPERTIES)


#: ``status`` → the :class:`CellSummary` count its rows add to.
_STATUS_COUNTS = {
    "ok": "ok", "error": "errors", "inadmissible": "inadmissible",
    "inapplicable": "inapplicable",
}
#: Property column → the count of ``ok`` rows where it reads ``False``.
_FAILURE_COUNTS = {
    **{prop: f"{prop}_violations" for prop in SAFETY_PROPERTIES},
    "termination": "termination_failures",
}
#: Row column → the :class:`CellSummary` mean over the ``ok`` rows carrying it.
_MEANS = {"phases": "mean_phases", "messages_sent": "mean_messages"}
#: A cell's counts before its first row.
_NO_COUNTS = dict.fromkeys(
    ("runs", *_STATUS_COUNTS.values(), *_FAILURE_COUNTS.values()), 0
)


class _CellAccumulator:
    """Single-pass fold state for one report cell: the summary's counts, a
    ``[sum, count]`` per mean, the latency samples and ``[sum, count, max]``
    of the wall durations."""

    __slots__ = ("counts", "sums", "latencies", "wall")

    def __init__(self) -> None:
        self.counts = _NO_COUNTS.copy()
        self.sums = {column: [0.0, 0] for column in _MEANS}
        # Compact float buffer: exact percentiles need the samples, but one
        # double per timed ok row is all that survives of each row.
        self.latencies = array("d")
        self.wall = [0.0, 0, 0.0]

    def add(self, row: Row, count: int = 1) -> None:
        """Fold ``count`` rows equal to ``row`` (a group's row, once)."""
        counts = self.counts
        counts["runs"] += count
        wall = row.get("_elapsed_ms")
        if wall is not None:
            wall = float(wall)
            stats = self.wall
            stats[0] += wall * count
            stats[1] += count
            if wall > stats[2]:
                stats[2] = wall
        status = row.get("status")
        name = _STATUS_COUNTS.get(status)
        if name is not None:
            counts[name] += count
        if status != "ok":
            return
        for column, name in _FAILURE_COUNTS.items():
            if row.get(column) is False:
                counts[name] += count
        for column, stats in self.sums.items():
            value = row.get(column)
            if value is not None:
                stats[0] += float(value) * count
                stats[1] += count
        latency = row.get("time_to_decision")
        if latency is not None:
            self.latencies.extend([float(latency)] * count)

    def summary(self, key: Tuple[object, ...]) -> CellSummary:
        latencies = self.latencies
        wall_sum, wall_count, wall_max = self.wall
        return CellSummary(
            key=key,
            **self.counts,
            **{
                _MEANS[column]: total / count if count else None
                for column, (total, count) in self.sums.items()
            },
            mean_latency=(
                math.fsum(latencies) / len(latencies) if latencies else None
            ),
            p50_latency=percentile(latencies, 0.50),
            p99_latency=percentile(latencies, 0.99),
            mean_wall_ms=wall_sum / wall_count if wall_count else None,
            max_wall_ms=wall_max if wall_count else None,
            total_wall_ms=wall_sum,
        )


class SummaryFold:
    """Incremental per-cell aggregation: feed rows, read summaries anytime.

    Next to the cells it keeps running totals over every row fed:
    ``statuses`` (rows per ``status``), ``backends`` (rows per
    ``_backend``, ``scalar`` where a row names none) and ``unsafe`` (rows
    failing any of :data:`SAFETY_PROPERTIES`, once however many fail).

    Feed it a live stream or a file scan: ``campaign run`` folds each row
    as it is appended to the checkpoint, and the rows an earlier session
    recorded as :func:`~repro.campaigns.results.validate_resume` scans
    them; ``campaign report`` folds a result file.
    """

    def __init__(
        self, group_keys: Sequence[str] = DEFAULT_GROUP_KEYS
    ) -> None:
        self.group_keys = tuple(group_keys)
        self._cells: Dict[Tuple[object, ...], _CellAccumulator] = {}
        self.statuses: Counter = Counter()
        self.backends: Counter = Counter()
        self.unsafe = 0

    def add(self, row: Row, count: int = 1) -> None:
        key = tuple(map(row.get, self.group_keys))
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _CellAccumulator()
        cell.add(row, count)
        self.statuses[row.get("status")] += count
        self.backends[row.get("_backend", "scalar")] += count
        for prop in SAFETY_PROPERTIES:
            if row.get(prop) is False:
                self.unsafe += count
                break

    def summaries(self) -> List[CellSummary]:
        """Per-cell summaries, ordered by group key."""
        ordered = sorted(
            self._cells, key=lambda k: tuple(str(part) for part in k)
        )
        return [self._cells[key].summary(key) for key in ordered]


def summarize(
    rows: Iterable[Row],
    group_keys: Sequence[str] = DEFAULT_GROUP_KEYS,
) -> List[CellSummary]:
    """Fold rows (any iterable, consumed once) into per-cell summaries."""
    fold = SummaryFold(group_keys)
    for row in rows:
        fold.add(row)
    return fold.summaries()


def format_report(
    summaries: Sequence[CellSummary],
    group_keys: Sequence[str] = DEFAULT_GROUP_KEYS,
) -> str:
    """Render per-cell summaries as an aligned monospace table.

    ``inadm`` (model outside the algorithm's bound) and ``inappl``
    (scenario the configuration cannot host) are distinct columns: the
    first marks a resilience frontier, the second a grid axis that does
    not apply — folding them together hid frontier crossings.

    When any cell carries wall-duration data (a live ``campaign run``, or
    ``campaign report --events``), ``wall-ms`` (per-run mean) and
    ``wall-max`` columns appear; without durations the table keeps its
    historical shape.
    """
    timed = any(summary.mean_wall_ms is not None for summary in summaries)
    headers = [
        *group_keys,
        "runs", "ok", "err", "inadm", "inappl", "safety-viol", "term-fail",
        "phases", "msgs", "ttd-mean", "ttd-p50", "ttd-p99",
    ]
    if timed:
        headers += ["wall-ms", "wall-max"]
    table = []
    for summary in summaries:
        row = [
            *summary.key,
            summary.runs,
            summary.ok,
            summary.errors,
            summary.inadmissible,
            summary.inapplicable,
            format_rate(summary.safety_violations, summary.ok),
            format_rate(summary.termination_failures, summary.ok),
            format_float(summary.mean_phases),
            format_float(summary.mean_messages, 1),
            format_float(summary.mean_latency),
            format_float(summary.p50_latency),
            format_float(summary.p99_latency),
        ]
        if timed:
            row += [
                format_float(summary.mean_wall_ms),
                format_float(summary.max_wall_ms),
            ]
        table.append(row)
    return format_table(headers, table)


def format_slowest_cells(
    summaries: Sequence[CellSummary],
    group_keys: Sequence[str] = DEFAULT_GROUP_KEYS,
    top: int = 5,
) -> str:
    """Rank cells by total wall time — where a sweep actually spends it.

    Returns ``""`` when no cell carries duration data, so callers can
    append it unconditionally.
    """
    timed = [s for s in summaries if s.mean_wall_ms is not None]
    if not timed:
        return ""
    timed.sort(key=lambda s: -s.total_wall_ms)
    lines = [f"slowest cells (by total wall time, top {min(top, len(timed))}):"]
    for summary in timed[:top]:
        cell = " ".join(
            f"{key}={value}" for key, value in zip(group_keys, summary.key)
        )
        lines.append(
            f"  {summary.total_wall_ms:10.1f} ms total  "
            f"{summary.mean_wall_ms:8.2f} ms/run  "
            f"max {summary.max_wall_ms:8.2f} ms  {cell}"
        )
    return "\n".join(lines)
