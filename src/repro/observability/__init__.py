"""Observability: instrumentation, structured events, live progress.

Three small, dependency-free layers that make the engine and the campaign
runner report what they are doing instead of running as black boxes:

* :mod:`repro.observability.telemetry` — a per-run :class:`Telemetry`
  registry of counters and histograms plus a :meth:`Telemetry.span`
  phase timer with parent/child (self-time) attribution.  The kernel and
  schedulers skip instrumentation entirely when no telemetry is bound, so
  the campaign hot path (``observe="metrics"``) is unaffected.
* :mod:`repro.observability.events` — an append-only JSONL
  :class:`EventLog` the campaign CLI writes lifecycle events through
  (``campaign_started``, ``chunk_dispatched``, ``row_completed``,
  ``checkpoint_flushed``, ``worker_heartbeat``, ``campaign_finished``),
  one ``{"ts": ..., "kind": ...}`` object per line.
* :mod:`repro.observability.progress` — a throttled, single-line stderr
  progress renderer (rows done / total, rows/s, ETA, error and
  inadmissible counts) behind ``repro campaign run --progress``.

The engine surfaces telemetry as ``Outcome.telemetry``: pass a
:class:`Telemetry` to :func:`~repro.engine.kernel.run_instance` (either
observation mode; ``observe="metrics"`` gets phase timings without paying
for trace objects).  ``repro profile`` renders the result
as a phase-breakdown table via :func:`format_phase_table`.
"""

from repro.observability.events import EventLog, load_row_durations, read_events
from repro.observability.progress import ProgressLine
from repro.observability.telemetry import (
    Telemetry,
    format_phase_table,
    percentile,
)

__all__ = [
    "EventLog",
    "ProgressLine",
    "Telemetry",
    "format_phase_table",
    "load_row_durations",
    "percentile",
    "read_events",
]
