"""Crash-safe findings corpus: JSONL records plus a resumable state journal.

The corpus is a :mod:`repro.utils.jsonl` file, like the campaign
checkpoint: one canonical JSON line per finding, appended, flushed and
fsynced before its candidate is acknowledged, so a kill loses at most the
line being written; a torn final line is tolerated on scan and dropped on
resume.

Alongside the findings file lives ``<out>.state`` — a header plus an
append-only acknowledgement journal.  Line 1 is the canonical JSON header
of everything that determines the findings (the run's
:func:`~repro.fuzz.runner.state_header`: seed, budget, space fingerprint,
over-bound mode and the fixed mutation and shrink knobs), written **once**,
when a fresh session starts the journal, by write-temp + rename, so a
header is never torn.  After every candidate the loop appends one
``"<next> <findings>\n"`` line in a single ``write(2)`` through a
held-open appender (:func:`write_state`); a resume appends after the last
one.  The recovery point is the last newline-terminated acknowledgement —
``0 0`` when there is none.  An unterminated tail is a torn
acknowledgement, i.e. an unacknowledged candidate; a complete line that is
not the next acknowledgement in sequence is corruption.

Resume validation refuses a state whose header is not the resuming run's,
compared whole (:func:`~repro.utils.jsonl.check_header`, the first
differing key named), and a corpus that no longer holds the acknowledged
findings, rather than silently producing a franken-corpus; on a compatible
resume any finding records at or beyond ``next`` (appended after the last
acknowledgement, i.e. the crash window) are dropped — deterministic
re-execution regenerates them byte-identically.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from repro.fuzz.space import FuzzCandidate
from repro.utils.jsonl import Appender, canonical, check_header, replace, scan

#: One acknowledgement line of the state journal: ``<next> <findings>``.
_ACK = re.compile(r"(\d+) (\d+)")

#: What a finding record holds (``build_record``'s fields), and what one
#: with a ``shrunk`` form adds; ``*_seed`` and ``index`` are integers.
RECORD_FIELDS = ("index", "kind", "violated", "over_bound", "candidate", "key",
                 "seed", "fuzz_seed", "result")
SHRUNK_FIELDS = ("shrunk", "shrunk_key", "shrunk_seed", "shrink_ops", "shrink_attempts")


def state_path(out: object) -> Path:
    """The sidecar state file of a findings corpus."""
    return Path(f"{out}.state")


def write_state(journal: Appender, next_index: int, findings: int) -> None:
    """Acknowledge one candidate: append ``"<next> <findings>\\n"``.

    No fsync — a process death keeps what the kernel already has, the same
    durability the rename-per-candidate protocol had; a torn line is an
    unacknowledged candidate.
    """
    journal.write(b"%d %d\n" % (next_index, findings))


def read_state(path: Path, header: Mapping[str, object]) -> Tuple[int, int]:
    """The recovery point ``(next, findings)`` of a state journal that a
    session running under ``header`` may resume: its header line must be
    ``header`` (:func:`~repro.utils.jsonl.check_header`), and its
    acknowledgements advance ``0 0`` one candidate a line.

    Raises ``ValueError`` naming the file and what is wrong with it.
    """
    try:
        first, *acks = path.read_text(encoding="utf-8").split("\n")
        recorded = json.loads(first)
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable fuzz state {path}: {exc}") from exc
    check_header(path, recorded, header, "state")
    next_index = findings = 0
    # What follows the last newline is empty or a torn acknowledgement:
    # either way not acknowledged.
    for lineno, line in enumerate(acks[:-1], start=2):
        match = _ACK.fullmatch(line)
        if match is None or int(match[1]) != next_index + 1:
            raise ValueError(
                f"corrupt fuzz state {path}: line {lineno} is not the "
                f"acknowledgement of candidate {next_index}"
            )
        next_index, findings = int(match[1]), int(match[2])
    for field, value, high in (
        ("next", next_index, header["budget"]), ("findings", findings, next_index)
    ):
        if value > high:
            raise ValueError(
                f"fuzz state {path}: {field!r} must be an integer in "
                f"0..{high}, got {value}"
            )
    return next_index, findings


def scan_findings(path: Path) -> List[Dict[str, object]]:
    """Parse a findings corpus under the torn-tail rule of
    :mod:`repro.utils.jsonl` (a missing file holds none)."""
    if not path.exists():
        return []
    records: List[Dict[str, object]] = []
    for offset, _length, record in scan(path, "findings"):
        problem = _record_problem(record)
        if problem:
            raise ValueError(f"{path}: findings line at byte {offset} {problem}")
        records.append(record)
    return records


def _record_problem(record: object) -> str:
    """Why replay, shrink or resume could not use ``record`` ('' if they can)."""
    if not isinstance(record, dict) or not isinstance(record.get("index"), int):
        return "is not a finding record"
    fields = RECORD_FIELDS + (SHRUNK_FIELDS if "shrunk" in record else ())
    missing = [field for field in fields if field not in record]
    if missing:
        return f"lacks {', '.join(missing)}"
    for field in ("seed", "fuzz_seed", "shrunk_seed"):
        if type(record.get(field, 0)) is not int:
            return f"has a non-integer {field} {record[field]!r}"
    for field in [field for field in ("candidate", "shrunk") if field in record]:
        try:
            FuzzCandidate.from_mapping(record[field])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"has an unreadable {field}: {exc!r}"
    return ""


def truncate_findings(
    path: Path, next_index: int, findings: int
) -> Tuple[List[Dict[str, object]], int]:
    """Drop records at/after ``next_index``; ``(survivors, dropped count)``.

    A crash between a finding append and its acknowledgement leaves one
    record the state does not acknowledge; re-executing that candidate
    regenerates the identical bytes, so the duplicate-to-be is dropped
    here.  The survivors must be exactly the ``findings`` the state
    acknowledged — a corpus that lost some would rebuild different
    mutation sources and silently fork the search — and the file is left
    untouched when they are not.  The rewrite is atomic (temp + rename).
    """
    scanned = scan_findings(path)
    records = [record for record in scanned if record["index"] < next_index]
    if len(records) != findings:
        raise ValueError(
            f"corpus holds {len(records)} of the {findings} acknowledged "
            "findings"
        )
    replace(path, (canonical(record).encode() + b"\n" for record in records))
    return records, len(scanned) - len(records)
