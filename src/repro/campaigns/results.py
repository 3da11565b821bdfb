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
resume scan, decoding each group once, records the same for what it reads),
and finalize copies those slices in ``run_id`` order.  No row is parsed or
dumped a second time and finalize never builds a row dict; what it holds
is a bounded window and two packed integers per grid run (:class:`LineIndex`).

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
import os
import re
from array import array
from collections.abc import MutableMapping
from itertools import accumulate, chain, compress
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.cell import Coords, Row, RowPart, expand_part
from repro.utils.jsonl import Appender, canonical, replace, scan

#: The most bytes :func:`finalize_checkpoint` reads at once (a longer line is read whole).
WINDOW = 1 << 20


class LineIndex(MutableMapping):
    """``run_id → (byte offset, byte length)`` of the checkpoint line recording
    that run, newline included, iterated in run_id order; a run recorded twice
    keeps its first line.  Two packed ``array('q')`` columns indexed by run_id
    (length 0: not recorded), grown within ``range(runs)`` (the grid; ``None``:
    unbounded), a run_id outside which raises ``ValueError`` before anything grows."""

    def __init__(self, runs: Optional[int] = None) -> None:
        self._limit = float("inf") if runs is None else runs
        self._offsets, self._lengths = array("q"), array("q")
        self._recorded = 0

    def record(self, run_id: int, offset: int, length: int) -> bool:
        """Index a line unless ``run_id`` has one; whether it did."""
        if not 0 <= run_id < len(self._lengths):
            self._reserve(run_id, run_id + 1)
        if self._lengths[run_id] or not length:  # length 0: not recorded
            return False
        self._offsets[run_id], self._lengths[run_id] = offset, length
        self._recorded += 1
        return True

    def record_lines(self, run_ids: Sequence[int], offset: int, lengths: Sequence[int]) -> None:
        """:meth:`record` lines written back to back; new consecutive run_ids at once."""
        first, stop = run_ids[0], run_ids[0] + len(run_ids)
        if len(run_ids) > 1 and run_ids == [*range(first, stop)]:
            self._reserve(first, stop)
            if not any(self._lengths[first:stop]):
                self._lengths[first:stop] = array("q", lengths)
                self._offsets[first:stop] = array("q", accumulate(lengths[:-1], initial=offset))
                self._recorded += stop - first
                return
        for run_id, at, length in zip(run_ids, accumulate(lengths, initial=offset), lengths):
            self.record(run_id, at, length)

    def _reserve(self, first: int, stop: int) -> None:
        if not 0 <= first < stop <= self._limit:
            raise ValueError(f"run {min(first, stop - 1)} is outside the index")
        have = len(self._lengths)
        if stop > have:
            zeros = bytes(8 * (min(self._limit, max(stop, 2 * have)) - have))
            self._offsets.frombytes(zeros)
            self._lengths.frombytes(zeros)

    def __contains__(self, run_id: object) -> bool:
        try:
            return run_id >= 0 and self._lengths[run_id] != 0
        except (IndexError, TypeError):
            return False

    def __getitem__(self, run_id: int) -> Tuple[int, int]:
        if run_id not in self:
            raise KeyError(run_id)
        return self._offsets[run_id], self._lengths[run_id]

    def __setitem__(self, run_id: int, entry: Tuple[int, int]) -> None:
        self.pop(run_id, None)
        self.record(run_id, *entry)

    def __delitem__(self, run_id: int) -> None:
        self[run_id]  # KeyError unless recorded
        self._lengths[run_id], self._recorded = 0, self._recorded - 1

    def __iter__(self) -> Iterator[int]:
        return compress(range(len(self._lengths)), self._lengths)

    def __len__(self) -> int:
        return self._recorded


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


_INT = re.compile(rb"0|-?[1-9][0-9]*")  # a canonical JSON integer
#: A coordinate cut: ``rep``, ``run_id`` or ``seed`` as a key, then its
#: integer (group 2) up to the ``,`` or ``}`` ending it.
_CUT = re.compile(rb'[{,]"(rep|run_id|seed)":(' + _INT.pattern + rb")(?=[,}])")
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"')  # escapes included


def _shape(line: bytes) -> Optional[Tuple[bytes, ...]]:
    """The four byte runs around ``line``'s coordinate integers, or ``None``
    unless they are its top-level ``rep``, ``run_id`` and ``seed``.  The
    scan proved ``line`` canonical (no whitespace, no key twice, a quote in
    a string escaped), so a cut is a key's whole int: left to ask are one
    cut per coordinate, a flat object and ``run_id`` named once (finalize's
    check finds that cut).  The same runs around other integers are the
    same row with those."""
    cuts = list(_CUT.finditer(line))
    if (
        [cut[1] for cut in cuts] != [b"rep", b"run_id", b"seed"]
        or _STRING.sub(b'""', line).count(b"{") != 1
        or line.count(b'"run_id"') != 1
    ):
        return None
    bounds = [0] + [at for cut in cuts for at in cut.span(2)] + [len(line)]
    return tuple(line[a:b] for a, b in zip(bounds[::2], bounds[1::2]))


def _recut(line: bytes, shape: Tuple[bytes, ...]) -> Optional[int]:
    """``line``'s run_id if it is ``shape``'s runs around three canonical
    integers, else ``None``."""
    head, after_rep, after_run, tail = shape
    if not line.startswith(head):
        return None
    rep = _INT.match(line, len(head))
    if rep is None or not line.startswith(after_rep, rep.end()):
        return None
    run = _INT.match(line, rep.end() + len(after_rep))
    if run is None or not line.startswith(after_run, run.end()):
        return None
    seed = _INT.match(line, run.end() + len(after_run))
    if seed is None or seed.end() + len(tail) != len(line):
        return None
    return int(run[0]) if line.endswith(tail) else None


def _scan(
    path: object,
    on_row: Optional[Callable[[Row, int], None]] = None,
    runs: Optional[int] = None,
) -> Tuple[LineIndex, int, Optional[Row], Optional[Row], Set[object]]:
    """One streaming pass over a checkpoint, decoding each group once: line
    index, intact length, first and last row, the rows' campaign names.

    A line whose bytes are the last parsed line's but for three coordinate
    integers (see :func:`_shape`) is that row again: only its run_id is
    read, and ``on_row`` gets each run of such lines as ``(row, count)``.
    A parsed line must be its row's :func:`canonical` bytes (so the others
    are too), and a run_id in ``range(runs)`` (default: the file's size).
    """
    held = b""  # the last line json.loads parsed (into ``row``)
    shape: Optional[Tuple[bytes, ...]] = None  # its shape, once asked for
    lead = b"\n"  # its bytes before ``"rep":`` (at first: what no line starts with)

    def decode(line: bytes) -> object:
        nonlocal held, shape, lead
        if line.startswith(lead):  # cheap before any cut
            if shape is None:
                shape = _shape(held) or ()
            run_id = _recut(line, shape) if shape else None
            if run_id is not None:
                return run_id, line
        held, shape, lead = line, None, line[:line.rfind(b'"rep":')]
        if line.startswith(b'{"'):  # what json.loads would detect as UTF-8
            return json.loads(line.decode("utf-8", "surrogatepass"))
        return json.loads(line)

    index = LineIndex(os.path.getsize(path) if runs is None else runs)
    campaigns: Set[object] = set()
    first = row = obj = None
    count = intact = 0  # count: rows of ``row``'s run not recorded before
    for offset, length, obj in scan(path, "checkpoint", decode):
        if obj.__class__ is tuple:
            run_id, line = obj
        else:  # a parsed line: finalize must find "run_id":N[,}] in it
            run_id, line = obj.get("run_id") if obj.__class__ is dict else None, held
            field = b'"run_id":%d' % run_id if type(run_id) is int else b"\n"
            at = held.find(field)
            if at == -1 or not held.startswith((b",", b"}"), at + len(field)):
                raise ValueError(f"{path}: checkpoint line at byte {offset} has no "
                                 'integer run_id written as "run_id":N')
            if count and on_row is not None:
                on_row(row, count)
            row, count = obj, 0
            campaigns.add(obj.get("campaign"))
            first = obj if first is None else first
        # Finalize copies the line verbatim: it must be what a sink writes.
        if length != len(line) + 1 or obj is row and canonical(obj).encode() != line:
            raise ValueError(f"{path}: checkpoint line at byte {offset} is not "
                             "its row's canonical JSON")
        try:
            count += index.record(run_id, offset, length)
        except ValueError:
            raise ValueError(f"checkpoint {path} records run {run_id} but this " + (
                f"grid has only {runs} runs (spec changed?)" if runs is not None
                else "file is too short to hold that many")) from None
        intact = offset + length
    if count and on_row is not None:
        on_row(row, count)
    if obj.__class__ is tuple:  # the last line's row, rebuilt from its cuts
        obj = dict(row, **{k.decode(): int(v) for k, v in _CUT.findall(obj[1])})
    return index, intact, first, obj, campaigns


def validate_resume(
    spec,
    checkpoint: object,
    on_row: Optional[Callable[[Row, int], None]] = None,
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

    This is the one pass that decodes the recorded rows, each group once,
    so ``on_row(row, count)`` — called per run of adjacent lines of one
    group, ``row`` standing for the ``count`` not recorded before (but for
    their coordinates) — is where a caller folds them into its report;
    whatever it accumulated is void when the validation raises.

    Raises :class:`ValueError` when the checkpoint is corrupt, holds a
    line :func:`finalize_checkpoint` would refuse, names a different
    campaign, records a ``run_id`` outside this grid, or fails
    the O(1)-memory seed spot-check: the first and last recorded rows must
    carry exactly the seeds this spec derives for their run_ids, which
    catches a ``--seed`` override or an edited axis order — resuming past
    any of these would finalize a mixed file no single-shot run matches.
    Both the CLI's ``--resume`` and API callers building on
    :func:`~repro.campaigns.runner.iter_groups`'s ``skip_run_ids``
    should gate on this.
    """
    path = Path(checkpoint)
    index, intact, first, last, campaigns = _scan(path, on_row, spec.total_runs)
    if not index:
        return index, intact
    foreign = campaigns - {spec.name}
    if foreign:
        raise ValueError(
            f"checkpoint {path} belongs to campaign "
            f"{next(iter(foreign))!r}, not {spec.name!r}"
        )
    for row in (first, last):
        if row.get("seed") != spec.run_at(row["run_id"]).seed:
            raise ValueError(
                f"checkpoint {path} was recorded with a different "
                f"campaign seed or grid (run {row['run_id']} seed "
                "mismatch)"
            )
    return index, intact


def finalize_checkpoint(
    checkpoint: object, out: object, index: Optional[LineIndex] = None
) -> Path:
    """Merge a complete checkpoint into the canonical final snapshot.

    A byte-offset merge: the line each ``index`` entry points at is copied,
    in ``run_id`` order (a run recorded twice — possible only if two
    resumes raced — keeps its first line), to a temporary sibling that is
    atomically renamed onto ``out``; the checkpoint is removed last, so a
    crash at any point leaves either a resumable checkpoint or the finished
    file, never neither.  Lines are copied verbatim, runs of adjacent ones
    in pieces of at most :data:`WINDOW` bytes (or one longer line) read into
    one reused buffer; no row is parsed.

    ``index`` is what the campaign's :class:`ResultSink` accumulated
    (``sink.index``); without one it is rebuilt by scanning the
    checkpoint, which then must not end in a torn line.  Every entry is
    checked against the bytes before its piece is written: an entry that
    is not exactly one whole line recording its ``run_id`` raises
    :class:`ValueError`, leaving the checkpoint and ``out`` as they were.
    """
    source = Path(checkpoint)
    with open(source, "rb") as handle:
        if index is None:
            index, intact, *_ = _scan(source)
            handle.seek(intact)
            if handle.read().strip():  # at most a line and blanks
                raise ValueError(f"{source}: torn or corrupt final line; "
                                 "resume the campaign to complete it")
        target = replace(out, _pieces(handle, source, index))
    source.unlink()
    return target


def _pieces(handle, source: Path, index: LineIndex) -> Iterator[memoryview]:
    """Each checked piece of :func:`finalize_checkpoint`, a view of one reused buffer."""
    def refused(run_id: int) -> ValueError:
        return ValueError(f"{source}: index entry for run {run_id} (offset {offsets[run_id]}, "
                          f"length {lengths[run_id]}) is not that run's line in the file")

    size = os.fstat(handle.fileno()).st_size
    offsets, lengths = index._offsets, index._lengths
    buffer = bytearray()
    ids = array("q")  # the run_ids of the piece [start, stop), in file order
    start = stop = 0
    for run_id in chain(index, [None]):
        if run_id is not None:
            offset, length = offsets[run_id], lengths[run_id]
            if not 0 <= offset < offset + length <= size:
                raise refused(run_id)
            if ids and offset == stop and offset + length - start <= WINDOW:
                ids.append(run_id)
                stop += length
                continue
        if ids:
            base = start - (start > 0)  # the byte before must be a newline
            if stop - base > len(buffer):
                buffer = bytearray(max(stop - base, min(WINDOW + 1, size)))
            handle.seek(base)
            if handle.readinto(memoryview(buffer)[:stop - base]) < stop - base:
                raise ValueError(f"{source} shrank while it was finalized")
            at = start - base
            for each in ids:
                end, field = at + lengths[each], b'"run_id":%d' % each
                found = buffer.find(field, at, end)
                if (at and buffer[at - 1] != 10) or buffer.find(b"\n", at, end) != end - 1 or (
                    found == -1 or buffer[found + len(field)] not in b",}"
                ):
                    raise refused(each)
                at = end
            yield memoryview(buffer)[start - base:stop - base]
            del ids[:]
        if run_id is None:
            return
        ids.append(run_id)
        start, stop = offset, offset + length


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
        self.index = LineIndex() if index is None else index

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
        self.index.record_lines(run_ids, offset, [*map(len, blobs)])
