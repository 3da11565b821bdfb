"""Structured JSONL lifecycle events: the campaign's flight recorder.

An :class:`EventLog` appends one compact JSON object per line to a sidecar
file (``repro campaign run --events PATH``).  Every event carries ``ts``
(unix seconds) and ``kind``; the remaining fields are kind-specific:

========================  =====================================================
kind                      fields
========================  =====================================================
``campaign_started``      ``campaign, total_runs, workers, chunk, seed,
                          backend, skipped, resume``
``chunk_dispatched``      ``runs, where`` (runs in the chunk; ``where`` it
                          executes: ``pool`` or ``parent``)
``row_completed``         ``run_id, status, backend, duration_ms, pid``
``checkpoint_flushed``    ``rows`` (rows recorded so far this session)
``worker_heartbeat``      ``pid, rows, rows_per_s`` (cumulative, parent clock)
``worker_crashed``        ``chunks, runs, error, rebuilds`` (a worker process
                          died; the listed chunks are re-dispatched)
``chunk_retried``         ``runs, attempt, mode`` (crash re-dispatch; ``mode``
                          is ``pool`` or ``inline``)
``pool_degraded``         ``rebuilds`` (rebuild limit hit; the campaign
                          continues in-process)
``resume_skipped``        ``rows`` (recorded runs --resume did not re-execute)
``campaign_finished``     ``rows, errors, elapsed_s, interrupted, backends``
                          (``errors`` and ``backends``, rows per backend,
                          count this session's rows)
========================  =====================================================

The event stream is diagnostic, not canonical: result rows remain the only
source of truth, the canonical JSONL is byte-identical with and without an
event log attached (the inertness test pins this), and readers must ignore
kinds they do not know.

The file is a :mod:`repro.utils.jsonl` file, like the campaign checkpoint:
each ``emit`` writes and flushes one canonical line, so an interrupted
campaign's event file is complete up to the crash but for one torn tail,
which :func:`read_events` skips and a resumed campaign's log cuts before it
appends.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional

from repro.utils.jsonl import Appender, canonical, scan

__all__ = ["EventLog", "load_row_durations", "read_events"]

Event = Dict[str, object]


class EventLog(Appender):
    """A held-open, flush-per-event JSONL writer for lifecycle events."""

    def emit(self, kind: str, **fields: object) -> None:
        """Append one event; ``ts`` and ``kind`` lead every object."""
        event: Event = {"ts": round(time.time(), 6), "kind": kind}
        event.update(fields)
        self.write(canonical(event).encode() + b"\n")


def iter_events(path: object) -> Iterator[Event]:
    """Lazily yield events under the torn-tail rule of
    :mod:`repro.utils.jsonl`; an event must carry a ``kind``."""
    for offset, _length, event in scan(path, "event"):
        if not isinstance(event, dict) or "kind" not in event:
            raise ValueError(f"{path}: event without a kind at byte {offset}")
        yield event


def read_events(path: object, kind: Optional[str] = None) -> List[Event]:
    """Load an event file, optionally filtered to one ``kind``."""
    return [
        event
        for event in iter_events(path)
        if kind is None or event.get("kind") == kind
    ]


def load_row_durations(path: object) -> Dict[int, float]:
    """``run_id → duration_ms`` from a file's ``row_completed`` events.

    Wall durations are deliberately volatile — they never enter the
    canonical result JSONL — so ``repro campaign report --events`` joins
    them back onto result rows through this map.  A run re-executed after
    an interrupt appears twice; the last occurrence wins (it is the one
    whose row survived in the checkpoint).
    """
    durations: Dict[int, float] = {}
    for event in iter_events(path):
        if event.get("kind") != "row_completed":
            continue
        run_id = event.get("run_id")
        duration = event.get("duration_ms")
        if isinstance(run_id, int) and isinstance(duration, (int, float)):
            durations[run_id] = float(duration)
    return durations
