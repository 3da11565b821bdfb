"""The instrumentation core: counters, histograms, phase spans.

One :class:`Telemetry` object instruments one run (or one CLI session — the
registry is not thread-aware; give each kernel its own instance the way the
campaign runner gives each run its own RNG stream).

The off path costs nothing.  Code that may run un-instrumented holds
``telemetry = None`` and branches once per round (what the kernel and the
schedulers do — the disabled hot path executes the exact pre-instrumentation
code).

Spans nest.  Each ``with telemetry.span(name):`` block accumulates into its
name's ``(calls, total, self)`` record; the *self* time excludes any nested
span's total, so a phase table can report disjoint time attribution while
``total`` keeps the intuitive inclusive reading.  Span names use dotted
``layer.phase`` convention (``kernel.send``, ``scheduler.deliver``,
``network.sample``).
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Telemetry",
    "format_phase_table",
    "percentile",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 ≤ q ≤ 1``) of non-empty ``samples``.

    Linear interpolation between closest ranks (numpy's default method),
    over a sorted copy — callers holding pre-sorted data may pass it
    directly since sorting sorted input is cheap.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class _SpanTimer:
    """One active ``with telemetry.span(name)`` block."""

    __slots__ = ("_telemetry", "_name", "_start", "_child_total")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_SpanTimer":
        self._child_total = 0.0
        self._telemetry._stack.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter() - self._start
        telemetry = self._telemetry
        telemetry._stack.pop()
        record = telemetry._spans.get(self._name)
        if record is None:
            record = telemetry._spans[self._name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += elapsed
        # Self time: this block minus the (inclusive) time of spans opened
        # inside it — phase attribution stays disjoint under nesting.
        record[2] += elapsed - self._child_total
        stack = telemetry._stack
        if stack:
            stack[-1]._child_total += elapsed
        return False


class Telemetry:
    """A per-run registry of counters, histograms and span timers."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self._histograms: Dict[str, List[float]] = {}
        #: name → [calls, total_seconds, self_seconds].
        self._spans: Dict[str, List[float]] = {}
        self._stack: List[_SpanTimer] = []

    # -- scalar instruments --------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the named monotonic counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        samples = self._histograms.get(name)
        if samples is None:
            samples = self._histograms[name] = []
        samples.append(value)

    def observe_many(self, name: str, values: Sequence[float]) -> None:
        """Record ``values`` into the named histogram, in order.

        The same as one :meth:`observe` per value at one ``extend``'s cost
        (a loop that books samples locally hands them over once); an empty
        ``values`` records nothing and creates no histogram.
        """
        if values:
            self._histograms.setdefault(name, []).extend(values)

    # -- span timers ---------------------------------------------------------

    def span(self, name: str) -> _SpanTimer:
        """A context manager timing one phase; nests and self-attributes."""
        return _SpanTimer(self, name)

    # -- read-out ------------------------------------------------------------

    @property
    def span_names(self) -> List[str]:
        return list(self._spans)

    def span_stats(self, name: str) -> Dict[str, float]:
        """``{"calls", "total_s", "self_s"}`` for one span name."""
        calls, total, self_time = self._spans[name]
        return {"calls": calls, "total_s": total, "self_s": self_time}

    def total_span_seconds(self) -> float:
        """Sum of *self* time over every span — wall time under spans.

        Self times are disjoint by construction, so this never double
        counts a nested span, and comparing it against an externally
        measured wall clock yields the instrumentation coverage ratio.
        """
        return sum(record[2] for record in self._spans.values())

    @property
    def histogram_names(self) -> List[str]:
        return list(self._histograms)

    def histogram_stats(self, name: str) -> Dict[str, float]:
        """Summary stats of one histogram, tail percentiles included.

        ``p50``/``p95``/``p99`` interpolate between closest ranks (see
        :func:`percentile`) — the latency columns serve reports and the
        phase table render.
        """
        ordered = sorted(self._histograms[name])
        count = len(ordered)
        return {
            "count": count,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / count,
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
        }


def format_phase_table(
    telemetry: Telemetry,
    *,
    wall_seconds: Optional[float] = None,
    order: Optional[Sequence[str]] = None,
) -> str:
    """Render span records as an aligned phase-breakdown table.

    Phases are ordered by descending self time unless ``order`` pins an
    explicit sequence (unknown names are ignored, unlisted spans appended).
    With ``wall_seconds``, a share column and a coverage footer report how
    much of the measured wall clock the spans account for.  When the
    registry holds histograms, a second table follows with each one's
    count, mean and p50/p95/p99/max — so ``repro profile`` (and any other
    phase-table consumer) surfaces tail percentiles, not just span times.
    """
    from repro.analysis.reporting import format_table

    names = sorted(
        telemetry.span_names,
        key=lambda name: -telemetry.span_stats(name)["self_s"],
    )
    if order is not None:
        pinned = [name for name in order if name in names]
        names = pinned + [name for name in names if name not in pinned]
    headers = ["phase", "calls", "total-ms", "self-ms"]
    if wall_seconds:
        headers.append("share")
    rows = []
    for name in names:
        stats = telemetry.span_stats(name)
        row = [
            name,
            int(stats["calls"]),
            f"{stats['total_s'] * 1000:.3f}",
            f"{stats['self_s'] * 1000:.3f}",
        ]
        if wall_seconds:
            row.append(f"{stats['self_s'] / wall_seconds:6.1%}")
        rows.append(row)
    table = format_table(headers, rows)
    if wall_seconds:
        covered = telemetry.total_span_seconds()
        table += (
            f"\nspans cover {covered * 1000:.3f} ms of "
            f"{wall_seconds * 1000:.3f} ms wall ({covered / wall_seconds:.1%})"
        )
    histograms = sorted(telemetry.histogram_names)
    if histograms:
        rows = []
        for name in histograms:
            stats = telemetry.histogram_stats(name)
            rows.append(
                [name, int(stats["count"])]
                + [
                    f"{stats[column]:.4g}"
                    for column in ("mean", "p50", "p95", "p99", "max")
                ]
            )
        table += "\n" + format_table(
            ["histogram", "count", "mean", "p50", "p95", "p99", "max"], rows
        )
    return table
