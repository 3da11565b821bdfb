"""JSONL result store: one canonical JSON row per campaign run.

Rows are serialized with sorted keys and compact separators, so the file a
campaign writes is *byte-identical* for equal row lists — the property the
``--workers N`` determinism guarantee is checked against.

Two file shapes exist:

* the **checkpoint** (``<out>.partial``) — rows appended in *completion*
  order as the campaign streams, one ``write`` + ``flush()`` per
  :meth:`ResultSink.append`, so every completed run has reached the OS
  before the next chunk is consumed and survives an interrupted campaign.
  :func:`validate_resume` recovers the recorded ``run_id``\\ s (tolerating
  one torn final line from a crash mid-write) and ``repro campaign run
  --resume`` skips them;
* the **final snapshot** (``<out>``) — the checkpoint's lines in ``run_id``
  order (atomic rename), byte-identical to what a single uninterrupted
  run would have produced.

Each row is serialized **once, by the process that executed it**:
:func:`attach_lines` (called by the runner's ``execute_chunk``, so in the
pool worker when there is one) stores the canonical line on the row under
the volatile :data:`LINE_KEY`, :meth:`ResultSink.append` writes that line
verbatim, and :func:`finalize_checkpoint` is a *byte-offset merge*: the
sink records ``run_id → (offset, length)`` for every line it appends (the
resume scan records the same for the lines it parses), and finalize copies
those slices of the checkpoint in ``run_id`` order.  No row is parsed or
dumped a second time and finalize never builds a row dict; what it holds
is the checkpoint's bytes and two integers per row.

**The group contract.**  What streams through here is
:data:`~repro.engine.cell.RowPart`\\ s: ``(row, None)`` is one row;
``(row, coords)`` is a row a batch tier *proved* equal, but for ``(rep,
run_id, seed)``, across every run listed in ``coords``.  A group is
encoded once: :func:`attach_lines` leaves a ``%d``-template of the row's
line under :data:`TEMPLATE_KEY` — checked, where it is made, against
:func:`row_to_json` of the group's first and last row, and left out (so
every line is encoded on its own) on any mismatch — and
:meth:`ResultSink.append` renders the group's lines from it, writes them
with one ``write`` and one ``flush`` and indexes each line on its own.  A
torn group is therefore whole lines plus at most one torn line, which the
resume scan heals like any other torn tail.

Every file here is made of :mod:`repro.utils.jsonl`'s pieces: its
canonical encoder, its torn-tail scan, its held-open appender
(:class:`ResultSink` is one) and its write-temp-then-rename.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.cell import Coords, Row, RowPart, expand_part
from repro.utils.jsonl import Appender, canonical, replace, scan

#: ``run_id → (byte offset, byte length)`` of the checkpoint line recording
#: that run, newline included; a run recorded twice keeps its first line.
LineIndex = Dict[int, Tuple[int, int]]

#: Volatile row key under which :func:`attach_lines` stores the row's
#: canonical line for :meth:`ResultSink.append` to write verbatim.
LINE_KEY = "_line"

#: Volatile key of a group's row: its canonical line with ``%d`` where the
#: group's ``(rep, run_id, seed)`` coordinates go (literal ``%`` doubled).
TEMPLATE_KEY = "_line_template"

#: Stands in for the three coordinates in the one encoding of a group's row.
_MARK = "\x00coordinate"


def row_to_json(row: Row) -> str:
    """Canonical single-line JSON for one row.

    Keys starting with ``"_"`` are *volatile* — per-row wall durations and
    worker pids recorded for the events sidecar and progress display — and
    are stripped here, so canonical result files stay byte-identical
    across worker counts, chunk sizes and instrumentation settings.
    """
    return canonical(
        {key: value for key, value in row.items() if key[:1] != "_"}
    )


def _line_template(row: Row, coords: Sequence[Coords]) -> Optional[str]:
    """One encoding of ``row`` that renders every line of its group, or
    ``None`` unless it reproduces the first and last of them exactly."""
    marked = row_to_json(dict(row, rep=_MARK, run_id=_MARK, seed=_MARK))
    template = marked.replace("%", "%%").replace(canonical(_MARK), "%d")
    try:
        for rep, run_id, seed in (coords[0], coords[-1]):
            line = row_to_json(dict(row, rep=rep, run_id=run_id, seed=seed))
            if template % (rep, run_id, seed) != line:
                return None
    except TypeError:  # the mark is not exactly the three coordinates
        return None
    return template


def attach_lines(parts: List[RowPart]) -> List[RowPart]:
    """Store each part's canonical line(s) on its row.

    Called by the process that produced ``parts`` once they are final, so
    serialization happens there (a pool worker, when there is one) and
    exactly once: a single row gets its line under :data:`LINE_KEY`, a
    group its :func:`_line_template` under :data:`TEMPLATE_KEY`.  Both keys
    are volatile, so neither ever reaches a result file.
    """
    for row, coords in parts:
        if coords is None:
            row[LINE_KEY] = row_to_json(row)
        else:
            row[TEMPLATE_KEY] = _line_template(row, coords)
    return parts


def write_rows(path: object, rows: Iterable[Row]) -> Path:
    """Replace ``path`` with rows as canonical JSONL, atomically (temp +
    rename), creating parent directories."""
    return replace(path, (row_to_json(row).encode() + b"\n" for row in rows))


def iter_rows(path: object) -> Iterator[Row]:
    """Lazily yield rows from a JSONL file (blank lines are ignored).

    Reports and fold-based summaries consume this without ever holding
    the full row list.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSONL ({exc})"
                ) from exc


def checkpoint_path(out: object) -> Path:
    """The checkpoint (streaming append) file paired with a final path."""
    target = Path(out)
    return target.with_name(target.name + ".partial")


class _CheckpointScan:
    """One streaming pass over a checkpoint: index, offset, endpoint rows."""

    __slots__ = ("index", "intact", "first", "last", "campaigns")

    def __init__(self) -> None:
        self.index: LineIndex = {}
        self.intact = 0
        self.first: Optional[Row] = None
        self.last: Optional[Row] = None
        self.campaigns: Set[object] = set()


def _scan(
    path: object, on_row: Optional[Callable[[Row], None]] = None
) -> _CheckpointScan:
    found = _CheckpointScan()
    for offset, length, row in scan(path, "checkpoint"):
        run_id = row.get("run_id") if isinstance(row, dict) else None
        if not isinstance(run_id, int):
            raise ValueError(
                f"{path}: checkpoint line at byte {offset} has no integer "
                "run_id"
            )
        if run_id not in found.index:
            found.index[run_id] = (offset, length)
            if on_row is not None:
                on_row(row)
        found.campaigns.add(row.get("campaign"))
        if found.first is None:
            found.first = row
        found.last = row
        found.intact = offset + length
    return found


def validate_resume(
    spec,
    checkpoint: object,
    on_row: Optional[Callable[[Row], None]] = None,
) -> Tuple[LineIndex, int]:
    """Scan ``checkpoint`` and validate that ``spec`` may resume from it.

    ``spec`` is any object with ``name``, ``total_runs`` and
    ``run_at(run_id)`` — a :class:`~repro.campaigns.spec.CampaignSpec`
    (duck-typed so this module needs no spec import).  Returns ``(line
    index, intact byte length)``: the index's keys are the recorded
    run_ids (what :func:`~repro.campaigns.runner.iter_groups` takes as
    ``skip_run_ids``); truncate the file to the length before appending,
    and hand the index to :class:`ResultSink` so the sink
    continues it for :func:`finalize_checkpoint`.

    This is the one pass that parses the recorded rows, so ``on_row`` —
    called once per recorded run, duplicates skipped — is where a caller
    folds them into its report; whatever it accumulated is void when the
    validation raises.

    Raises :class:`ValueError` when the checkpoint is corrupt, names a
    different campaign, records a ``run_id`` outside this grid, or fails
    the O(1)-memory seed spot-check: the first and last recorded rows must
    carry exactly the seeds this spec derives for their run_ids, which
    catches a ``--seed`` override or an edited axis order — resuming past
    any of these would finalize a mixed file no single-shot run matches.
    Both the CLI's ``--resume`` and API callers building on
    :func:`~repro.campaigns.runner.iter_groups`'s ``skip_run_ids``
    should gate on this.
    """
    path = Path(checkpoint)
    found = _scan(path, on_row)  # single parse pass: index, endpoint rows
    if not found.index:
        return found.index, found.intact
    foreign = found.campaigns - {spec.name}
    if foreign:
        raise ValueError(
            f"checkpoint {path} belongs to campaign "
            f"{next(iter(foreign))!r}, not {spec.name!r}"
        )
    for run_id in (min(found.index), max(found.index)):
        if not 0 <= run_id < spec.total_runs:
            raise ValueError(
                f"checkpoint {path} records run {run_id} but this "
                f"grid has only {spec.total_runs} runs (spec changed?)"
            )
    for row in (found.first, found.last):
        if row.get("seed") != spec.run_at(row["run_id"]).seed:
            raise ValueError(
                f"checkpoint {path} was recorded with a different "
                f"campaign seed or grid (run {row['run_id']} seed "
                "mismatch)"
            )
    return found.index, found.intact


def _is_line_of(data: bytes, run_id: int, offset: int, length: int) -> bool:
    """Is ``data[offset:offset + length]`` exactly one whole line — starting
    where a line starts, its only newline last — that records ``run_id``?"""
    end = offset + length
    if not 0 <= offset < end <= len(data):
        return False
    if data.find(b"\n", offset, end) != end - 1:
        return False  # no newline, or one before the slice's last byte
    if offset and data[offset - 1:offset] != b"\n":
        return False
    field = b'"run_id":%d' % run_id
    found = data.find(field, offset, end)
    return found != -1 and data[found + len(field)] in b",}"


def finalize_checkpoint(
    checkpoint: object, out: object, index: Optional[LineIndex] = None
) -> Path:
    """Merge a complete checkpoint into the canonical final snapshot.

    A byte-offset merge: the checkpoint is read once and the line each
    ``index`` entry points at is copied, in ``run_id`` order (a run
    recorded twice — possible only if two resumes raced — keeps its first
    line), to a temporary sibling that is atomically renamed onto ``out``;
    the checkpoint is removed last, so a crash at any point leaves either
    a resumable checkpoint or the finished file, never neither.  Lines are
    copied verbatim — the sink only ever writes canonical ones — and no
    row is parsed: memory is the checkpoint's bytes plus the index.

    ``index`` is what the campaign's :class:`ResultSink` accumulated
    (``sink.index``); without one it is rebuilt by scanning the
    checkpoint, which then must not end in a torn line.  Every entry is
    checked against the bytes before anything is written: an entry that is
    not exactly one whole line recording its ``run_id`` raises
    :class:`ValueError` and leaves the checkpoint in place.
    """
    source = Path(checkpoint)
    data = source.read_bytes()
    if index is None:
        found = _scan(source)
        if data[found.intact:].strip():
            raise ValueError(
                f"{source}: torn or corrupt final line; resume the "
                "campaign to complete it"
            )
        index = found.index
    lines = sorted(index.items())
    for run_id, (offset, length) in lines:
        if not _is_line_of(data, run_id, offset, length):
            raise ValueError(
                f"{source}: index entry for run {run_id} (offset {offset}, "
                f"length {length}) is not that run's line in the file"
            )
    view = memoryview(data)
    target = replace(
        out, (view[offset:offset + length] for _, (offset, length) in lines)
    )
    source.unlink()
    return target


class ResultSink(Appender):
    """The crash-safe :class:`~repro.utils.jsonl.Appender` a campaign
    streams its rows through.

    One file handle serves the whole campaign; each :meth:`append` writes
    one part's canonical line(s) — what :func:`attach_lines` left on the
    row, else serialized here — in one ``write`` + ``flush``.
    :attr:`index` records where each line went, for
    :func:`finalize_checkpoint`; a resumed campaign passes the index
    :func:`validate_resume` returned, and the sink continues it.  Use as a
    context manager::

        with ResultSink(checkpoint_path(out)) as sink:
            for row, coords in iter_groups(spec, lines=True):
                sink.append(row, coords)
        finalize_checkpoint(checkpoint_path(out), out, sink.index)
    """

    def __init__(
        self, path: object, index: Optional[LineIndex] = None
    ) -> None:
        super().__init__(path)
        self.index: LineIndex = {} if index is None else index

    def append(
        self, row: Row, coords: Optional[Sequence[Coords]] = None
    ) -> None:
        if coords is None:
            run_ids = [row["run_id"]]
            lines = [row.get(LINE_KEY) or row_to_json(row)]
        else:
            run_ids = [coord[1] for coord in coords]
            template = row.get(TEMPLATE_KEY)
            lines = (
                [template % coord for coord in coords]
                if template
                else [row_to_json(each) for each in expand_part(row, coords)]
            )
        blobs = [line.encode("utf-8") + b"\n" for line in lines]
        offset = self.offset
        self.write(b"".join(blobs))
        for run_id, blob in zip(run_ids, blobs):
            self.index.setdefault(run_id, (offset, len(blob)))
            offset += len(blob)
