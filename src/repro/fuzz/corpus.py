"""The fuzz checkpoint and its findings corpus: crash-safe JSONL files.

A session streams into the checkpoint ``<out>.partial``
(:func:`~repro.utils.jsonl.checkpoint_path`), exactly as a campaign does.
Line 1 is the canonical JSON header of everything that determines the
findings (the run's :func:`~repro.fuzz.runner.state_header`: seed, budget,
space fingerprint, over-bound mode and the fixed mutation and shrink
knobs), written when a fresh session starts, by write-temp + rename, so a
header is never torn.  Then line ``k + 1`` is candidate ``k``: the
finding's canonical record, fsynced, or else the bare acknowledgement
``k``, each one ``write`` through a held-open
:class:`~repro.utils.jsonl.Appender`
(:func:`~repro.fuzz.runner.write_state`).  A finding and its
acknowledgement are one write, so the only crash window is the torn tail,
which the :mod:`~repro.utils.jsonl` torn-tail rule covers: a line counts
only with its newline.  When the session completes, the record lines
become the corpus ``<out>`` (write-temp + rename) and the checkpoint is
removed; an earlier ``<out>`` is untouched until then.

:func:`read_checkpoint` is the one validating read a resume makes before
anything is printed or written: the header must be the resuming run's,
compared whole (:func:`~repro.utils.jsonl.check_header`, the first
differing key named), and every line after it must be the next
candidate's.  What it returns — how many candidates are recorded and the
findings among them — is all a resume needs: deterministic re-execution
of the rest reproduces the single-shot bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from repro.fuzz.space import FuzzCandidate
from repro.utils.jsonl import check_header, scan

#: What a finding record holds (``build_record``'s fields), and what one
#: with a ``shrunk`` form adds; ``*_seed`` and ``index`` are integers.
RECORD_FIELDS = ("index", "kind", "violated", "over_bound", "candidate", "key",
                 "seed", "fuzz_seed", "result")
SHRUNK_FIELDS = ("shrunk", "shrunk_key", "shrunk_seed", "shrink_ops", "shrink_attempts")


def read_checkpoint(
    path: Path, header: Mapping[str, object]
) -> Tuple[int, List[Dict[str, object]]]:
    """What a session running under ``header`` resumes from the checkpoint
    at ``path``: ``(candidates recorded, finding records among them)``.

    The first line must be ``header``
    (:func:`~repro.utils.jsonl.check_header`); line ``k + 1`` must be candidate ``k``, for ``k`` below
    the header's budget: its acknowledgement ``k``, or a finding record
    whose ``index`` is ``k``.  A torn tail is not recorded.  Raises
    ``ValueError`` naming the file and what is wrong with it.
    """
    lines = scan(path, "checkpoint")
    check_header(path, next(lines, (0, 0, None))[2], header, "checkpoint")
    records: List[Dict[str, object]] = []
    count = 0
    for offset, _length, line in lines:
        if type(line) is int:
            index = line
        else:
            problem = _record_problem(line)
            if problem:
                raise ValueError(f"{path}: checkpoint line at byte {offset} {problem}")
            index = line["index"]
            records.append(line)
        if index != count or count >= header["budget"]:
            raise ValueError(f"{path}: checkpoint line at byte {offset} is not candidate {count}")
        count += 1
    return count, records


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
