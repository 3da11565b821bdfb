"""Crash-safe findings corpus: JSONL records plus a resumable state journal.

The corpus mirrors the campaign checkpoint protocol
(:mod:`repro.campaigns.results`): one canonical JSON line per finding,
flushed as written so a kill loses at most the line being written; a
torn final line is tolerated on scan and truncated on resume.

Alongside the findings file lives ``<out>.state`` — a header plus an
append-only acknowledgement journal.  Line 1 is a canonical JSON document
(seed, budget, space fingerprint, over-bound mode, and the ``next`` /
``findings`` the session started from), written **once** per session by
write-temp + rename, so a header is never torn.  After every candidate the
loop appends one ``"<next> <findings>\n"`` line in a single ``write(2)``
through a held-open unbuffered handle (:func:`write_state`).  The recovery
point is the last newline-terminated acknowledgement — or the header's own
``next`` / ``findings`` when there is none, which is also how a sidecar
left by the one-document-per-candidate format reads.  An unterminated tail
is a torn acknowledgement, i.e. an unacknowledged candidate; a complete
line that is not the next acknowledgement in sequence is corruption.

Resume validation refuses a foreign state (different seed, budget, space
or over-bound mode) and a corpus that no longer holds the acknowledged
findings, rather than silently producing a franken-corpus; on a compatible
resume any finding records at or beyond ``next`` (appended after the last
acknowledgement, i.e. the crash window) are dropped — deterministic
re-execution regenerates them byte-identically.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import BinaryIO, Dict, List, Tuple

#: Bumped when the record/state layout changes incompatibly.
STATE_VERSION = 1

#: One acknowledgement line of the state journal: ``<next> <findings>``.
_ACK = re.compile(r"(\d+) (\d+)")


def finding_to_json(record: Dict[str, object]) -> str:
    """Canonical serialization: sorted keys, no whitespace.

    Canonicalization is what makes "byte-identical findings file" a
    meaningful determinism check across reruns and kill/resume cycles.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def state_path(out: object) -> Path:
    """The sidecar state file of a findings corpus."""
    return Path(f"{out}.state")


def open_journal(path: Path, header: Dict[str, object]) -> BinaryIO:
    """Start a session's journal: a fresh header, then the append handle.

    The header replaces whatever was there atomically (write-temp +
    rename) — the only rename a session makes on the sidecar — and the
    returned handle is unbuffered, so each :func:`write_state` is one
    ``write(2)``.  The caller closes it.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(finding_to_json(header) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return open(path, "ab", buffering=0)


def write_state(journal: BinaryIO, next_index: int, findings: int) -> None:
    """Acknowledge one candidate: append ``"<next> <findings>\\n"``.

    No fsync — a process death keeps what the kernel already has, the same
    durability the rename-per-candidate protocol had; a torn line is an
    unacknowledged candidate.
    """
    journal.write(b"%d %d\n" % (next_index, findings))


def read_state(path: Path) -> Dict[str, object]:
    """Load a state journal: its header, advanced to the last acknowledgement.

    The returned document's ``next`` / ``findings`` are the recovery point.
    Raises ``ValueError`` naming the file and what is wrong with it.
    """
    try:
        header, *acks = path.read_text(encoding="utf-8").split("\n")
        state = json.loads(header)
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable fuzz state {path}: {exc}") from exc
    if not isinstance(state, dict) or state.get("version") != STATE_VERSION:
        raise ValueError(
            f"fuzz state {path} has unsupported version "
            f"{state.get('version') if isinstance(state, dict) else state!r}"
        )
    for field in ("seed", "budget", "next", "findings", "space", "over_bound"):
        if field not in state:
            raise ValueError(f"fuzz state {path} is missing {field!r}")
    for field in ("budget", "next", "findings"):
        # ``type is``, not isinstance: JSON ``true`` is no count.
        if type(state[field]) is not int or state[field] < 0:
            raise ValueError(
                f"fuzz state {path}: {field!r} must be a non-negative "
                f"integer, got {state[field]!r}"
            )
    # What follows the last newline is empty or a torn acknowledgement:
    # either way not acknowledged.
    for lineno, line in enumerate(acks[:-1], start=2):
        match = _ACK.fullmatch(line)
        if match is None or int(match[1]) != state["next"] + 1:
            raise ValueError(
                f"corrupt fuzz state {path}: line {lineno} is not the "
                f"acknowledgement of candidate {state['next']}"
            )
        state["next"], state["findings"] = int(match[1]), int(match[2])
    for field, high in (("next", state["budget"]), ("findings", state["next"])):
        if state[field] > high:
            raise ValueError(
                f"fuzz state {path}: {field!r} must be an integer in "
                f"0..{high}, got {state[field]}"
            )
    return state


def scan_findings(path: Path) -> List[Dict[str, object]]:
    """Parse a findings file, tolerating a torn final line.

    A malformed line anywhere *except* the end is corruption and raises —
    exactly the checkpoint scanner's posture: crashes tear tails, they do
    not rewrite middles.
    """
    records: List[Dict[str, object]] = []
    if not path.exists():
        return records
    deferred: Tuple[int, str] = (0, "")
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if deferred[1]:
                raise ValueError(
                    f"corrupt findings line {deferred[0]} in {path}: "
                    f"{deferred[1]}"
                )
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
                if not isinstance(record, dict) or "index" not in record:
                    raise ValueError("not a finding record")
            except ValueError as exc:
                # Only fatal if another line follows (then it's mid-file).
                deferred = (lineno, str(exc))
                continue
            records.append(record)
    return records


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
    records = [
        record for record in scanned if int(record["index"]) < next_index
    ]
    if len(records) != findings:
        raise ValueError(
            f"corpus holds {len(records)} of the {findings} acknowledged "
            "findings"
        )
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(finding_to_json(record) + "\n")
    os.replace(tmp, path)
    return records, len(scanned) - len(records)


class FindingLog:
    """Append-only findings writer, flushed per record (crash loses ≤1 line)."""

    def __init__(self, path: object, *, append: bool = False) -> None:
        self.path = Path(path)
        self._handle = self.path.open(
            "a" if append else "w", encoding="utf-8"
        )

    def append(self, record: Dict[str, object]) -> None:
        self._handle.write(finding_to_json(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "FindingLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
