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
import re
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


_INT = re.compile(rb"-?(?:0|[1-9][0-9]*)")  # a canonical JSON integer
#: A coordinate cut: ``rep``, ``run_id`` or ``seed`` as a key, then its
#: integer (group 2) up to the ``,`` or ``}`` ending it.
_CUT = re.compile(rb'[{,]"(rep|run_id|seed)":(' + _INT.pattern + rb")(?=[,}])")
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"')  # escapes included


def _shape(line: bytes, row: object) -> Optional[Tuple[bytes, ...]]:
    """The four byte runs around ``line``'s coordinate integers, or ``None``
    unless ``row``, the parse of ``line``, proves them its top-level ``rep``,
    ``run_id`` and ``seed``: one cut per coordinate, each the int parsed; a
    flat object, no whitespace between tokens, no key twice (each cut is its
    key's only value); ``run_id`` named once (finalize's check finds that
    cut).  The same runs around other integers are ``row`` with those."""
    cuts = list(_CUT.finditer(line))
    keys = [cut[1].decode() for cut in cuts]
    skeleton = _STRING.sub(b'""', line)
    if (
        keys != ["rep", "run_id", "seed"]
        or any(row.get(key) != int(cut[2]) or type(row[key]) is not int
               for key, cut in zip(keys, cuts))
        or skeleton.count(b"{") != 1
        or skeleton.count(b'"":') != len(row)
        or len(skeleton.split()) != 1
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
    path: object, on_row: Optional[Callable[[Row, int], None]] = None
) -> Tuple[LineIndex, int, Optional[Row], Optional[Row], Set[object]]:
    """One streaming pass over a checkpoint, decoding each group once: line
    index, intact length, first and last row, the rows' campaign names.

    A line whose bytes are the last parsed line's but for three coordinate
    integers (see :func:`_shape`) is that row again: only its run_id is
    read, and ``on_row`` gets each run of such lines as ``(row, count)``.
    """
    held = b""  # the last line json.loads parsed (into ``row``)
    shape: Optional[Tuple[bytes, ...]] = None  # its shape, once asked for
    lead = b"\n"  # its bytes before ``"rep":`` (at first: what no line starts with)

    def decode(line: bytes) -> object:
        nonlocal held, shape, lead
        if line.startswith(lead):  # cheap before any cut
            if shape is None:
                shape = _shape(held, row) or ()
            run_id = _recut(line, shape) if shape else None
            if run_id is not None:
                return run_id, line
        held, shape, lead = line, None, line[:line.rfind(b'"rep":')]
        if line.startswith(b'{"'):  # what json.loads would detect as UTF-8
            return json.loads(line.decode("utf-8", "surrogatepass"))
        return json.loads(line)

    index: LineIndex = {}
    campaigns: Set[object] = set()
    first = row = obj = None
    count = intact = 0  # count: rows of ``row``'s run not recorded before
    for offset, length, obj in scan(path, "checkpoint", decode):
        if obj.__class__ is tuple:
            run_id = obj[0]
        else:  # a parsed line: finalize must find "run_id":N[,}] in it
            run_id = obj.get("run_id") if obj.__class__ is dict else None
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
        if run_id not in index:
            index[run_id] = (offset, length)
            count += 1
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
    index, intact, first, last, campaigns = _scan(path, on_row)
    if not index:
        return index, intact
    foreign = campaigns - {spec.name}
    if foreign:
        raise ValueError(
            f"checkpoint {path} belongs to campaign "
            f"{next(iter(foreign))!r}, not {spec.name!r}"
        )
    for run_id in (min(index), max(index)):
        if not 0 <= run_id < spec.total_runs:
            raise ValueError(
                f"checkpoint {path} records run {run_id} but this "
                f"grid has only {spec.total_runs} runs (spec changed?)"
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
        index, intact, *_ = _scan(source)
        if data[intact:].strip():
            raise ValueError(
                f"{source}: torn or corrupt final line; resume the "
                "campaign to complete it"
            )
    runs: List[List[int]] = []  # [start, stop) of each run of adjacent lines
    for run_id, (offset, length) in sorted(index.items()):
        # One whole line (starts a line, only newline last) naming run_id?
        end = offset + length
        field = b'"run_id":%d' % run_id
        at = data.find(field, offset, end)
        if not (0 <= offset < end <= len(data) and data.find(b"\n", offset, end) == end - 1
                and (not offset or data[offset - 1] == 10)
                and at != -1 and data[at + len(field)] in b",}"):
            raise ValueError(
                f"{source}: index entry for run {run_id} (offset {offset}, "
                f"length {length}) is not that run's line in the file"
            )
        if runs and runs[-1][1] == offset:
            runs[-1][1] = end
        else:
            runs.append([offset, end])
    view = memoryview(data)
    target = replace(out, (view[start:stop] for start, stop in runs))
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
