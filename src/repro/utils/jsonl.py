"""Crash-safe JSONL files: the one primitive under every durable file.

The campaign checkpoint and result file (:mod:`repro.campaigns.results`),
the fuzz checkpoint and findings corpus (:mod:`repro.fuzz.corpus`) and the
events sidecar (:mod:`repro.observability.events`) are all made of these
pieces:

* :func:`canonical` — the one JSON encoding: sorted keys, compact
  separators, ASCII, so equal objects are equal bytes (what every
  byte-identity check compares);
* :func:`scan` — the one reader;
* :class:`Appender` — a held-open handle, one ``write`` + ``flush`` per
  :meth:`~Appender.write`, so a crash loses at most the line being written;
  given a header it starts the file afresh with that one line;
* :func:`checkpoint_path` — where a resumable command streams before its
  output is complete: ``<out>.partial``;
* :func:`check_header` — the one resume check of a checkpoint, which
  starts with a header;
* :func:`replace` — write a temporary sibling, then rename it into place,
  so a reader (or a crash) sees the old file or the new one, never a mix;
* :func:`unwritable` — the probe the CLI runs before it creates anything.

**The torn-tail rule.**  A line counts only once its newline is on disk:
what a crash leaves after the last newline is a torn tail, which
:func:`scan` ignores and an :class:`Appender` cuts before it writes.  Blank
lines are skipped.  A line that does not parse is tolerated only as the
last line; with any line after it, it is corruption — crashes tear tails,
they do not rewrite middles — and the scan raises ``ValueError`` naming
``<path>:<line>``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from types import TracebackType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Tuple, Type, TypeVar

canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_A = TypeVar("_A", bound="Appender")


def scan(
    path: object, what: str, decode: Optional[Callable[[bytes], object]] = None
) -> Iterator[Tuple[int, int, object]]:
    """Yield ``(offset, length, obj)`` for every line of ``path`` that counts.

    ``offset`` and ``length`` locate the line in the file, newline
    included; ``what`` names the lines in the corruption error; ``obj`` is
    what ``decode`` (default ``json.loads``) makes of the stripped line, a
    ``ValueError`` from it marking the line unparseable.  What a line must
    hold is its caller's check.
    """
    offset = 0
    corrupt: Optional[str] = None
    with open(path, "rb") as handle:
        for number, raw in enumerate(iter(handle.readline, b""), start=1):
            if corrupt is not None:
                raise ValueError(corrupt)
            if not raw.endswith(b"\n"):
                return  # torn tail: the crash came before the newline
            line = raw.strip()
            if line:
                try:
                    obj = (decode or json.loads)(line)
                except ValueError as exc:
                    corrupt = f"{path}:{number}: corrupt {what} line ({exc})"
                    continue
                yield offset, len(raw), obj
            offset += len(raw)


class Appender:
    """A held-open append handle: each :meth:`write` is one ``write`` and one
    ``flush``, so a line has reached the OS before the next one is made.

    It opens on a line boundary: a torn tail is cut first, so no line is
    ever glued onto one a crash tore.  With a ``header`` it starts the file
    instead: the header's :func:`canonical` line replaces whatever was
    there (:func:`replace`, so it is never torn), and the appends follow
    it.  :attr:`offset` is where the next write lands.  Use as a context
    manager.
    """

    def __init__(self, path: object, header: Optional[Mapping[str, object]] = None) -> None:
        if header is not None:
            replace(path, [canonical(header).encode() + b"\n"])
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a+b")
        size = end = self._handle.seek(0, os.SEEK_END)
        while end:  # back to just past the last newline
            start = max(0, end - 65536)
            self._handle.seek(start)
            cut = self._handle.read(end - start).rfind(b"\n")
            if cut != -1:
                end = start + cut + 1
                break
            end = start
        if end != size:
            self._handle.truncate(end)
        self.offset = end

    def write(self, data: bytes) -> None:
        self._handle.write(data)
        self._handle.flush()
        self.offset += len(data)

    def sync(self) -> None:
        """Make what was written durable (``fsync``), not just visible."""
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    def __enter__(self: _A) -> _A:
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def checkpoint_path(out: object) -> Path:
    """The checkpoint (streaming append) file paired with a final path."""
    target = Path(out)
    return target.with_name(target.name + ".partial")


def check_header(path: object, header: object, expected: Mapping[str, object], noun: str) -> None:
    """Refuse to continue ``path`` unless ``header``, its decoded first line,
    is ``expected``: the header this run would start the file with.

    Compared whole, key by key in sorted order, each value as its
    :func:`canonical` JSON; the ``ValueError`` names the first key that
    differs, missing from either side included, as ``(<key>: <noun> has
    <recorded>, this run has <expected>)``.
    """
    if not isinstance(header, dict):
        raise ValueError(f"{path} does not start with a header line")
    for key in sorted({*header, *expected}):
        have, want = header.get(key), expected.get(key)
        if (key in header, canonical(have)) != (key in expected, canonical(want)):
            raise ValueError(
                f"{path} was written by a different configuration "
                f"({key}: {noun} has {have!r}, this run has {want!r})"
            )


def replace(path: object, chunks: Iterable[bytes]) -> Path:
    """Write ``chunks`` to ``<path>.tmp`` and rename it onto ``path``,
    creating parent directories; on any failure the temporary is removed."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(target.name + ".tmp")
    try:
        with open(scratch, "wb") as handle:
            handle.writelines(chunks)
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return target


def unwritable(path: Path) -> Optional[str]:
    """Why ``path`` cannot be created or appended to (``None``: it can).

    Creates the parent directories, as a writer would, but leaves no file
    behind that was not there before.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        existed = path.exists()
        with open(path, "ab"):
            pass
        if not existed:
            path.unlink()
    except OSError as exc:
        return exc.strerror or str(exc)
    return None
