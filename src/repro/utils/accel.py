"""Optional numpy acceleration with exact scalar-stream fidelity.

The batch backend (:mod:`repro.engine.batch`) draws each run's latency
samples and loss coins in bulk, but must consume exactly the Mersenne
Twister stream ``random.Random`` gives the scalar oracle:

* :func:`get_numpy` — imports numpy at most once per process, gated by the
  ``REPRO_NO_NUMPY`` env var, and self-checks :class:`StreamSet` against
  ``random.Random``; on a mismatch numpy counts as absent and the array
  tier demotes.  Nothing imports ``numpy.random``, which would pull in
  :mod:`secrets`, :mod:`hmac` and OpenSSL's ``libcrypto``.

* :class:`StreamSet` — the ``random.Random(seed)`` streams of a cell's runs
  as one ``(624, B)`` MT19937 state array (Matsumoto & Nishimura 1998),
  twisted, tempered and turned into ``genrand_res53`` doubles for every
  stream at once.  Each stream's draws equal as many successive
  ``random()`` calls, so the array tier samples blocks where the scalar
  oracle samples scalars without moving a draw.
"""

from __future__ import annotations

import os
import random
from typing import Any, Sequence

NUMPY_ENV = "REPRO_NO_NUMPY"

_NUMPY: Any = None
_NUMPY_CHECKED = False

#: MT19937's state words, and the doubles (two words each) one state yields.
_N, _BLOCK = 624, 312


def _next_page(np: Any, mt: Any, work: Any) -> Any:
    """Twist the ``(624, m)`` state ``mt`` once, in place, and return the
    ``(312, m)`` doubles it then yields; ``work`` is ``(2, 624, m)`` uint32
    scratch.  Word *k*'s twist term reads words *k* and *k + 1* before the
    twist, so one pass makes the terms of words 0–622; the new words follow
    in slices 0–226, 227–453 and 454–622, each XORing in words the slice
    before it twisted, then word 623 from the new word 0."""
    y, z = work
    t, u = y[:-1], z[:-1]
    np.bitwise_and(mt[:-1], 0x80000000, out=t)
    np.bitwise_and(mt[1:], 0x7FFFFFFF, out=u)
    t |= u
    np.bitwise_and(t, 1, out=u)
    u *= 0x9908B0DF
    t >>= 1
    t ^= u
    for lo, hi, src in ((0, 227, 397), (227, 454, 0), (454, 623, 227)):
        np.bitwise_xor(mt[src : src + hi - lo], t[lo:hi], out=mt[lo:hi])
    w = (mt[-1] & 0x80000000) | (mt[0] & 0x7FFFFFFF)
    mt[-1] = mt[396] ^ (w >> 1) ^ ((w & 1) * 0x9908B0DF)
    np.right_shift(mt, 11, out=y)  # temper
    y ^= mt
    for shift, mask in ((7, 0x9D2C5680), (15, 0xEFC60000)):
        np.left_shift(y, shift, out=z)
        z &= mask
        y ^= z
    np.right_shift(y, 18, out=z)
    y ^= z
    return _doubles(np, y, z)


def _doubles(np: Any, y: Any, z: Any) -> Any:
    """``genrand_res53`` of the ``(624, m)`` outputs ``y``, with ``z`` as
    scratch: ``(a * 2**26 + b) / 2**53`` for ``a = y[2i] >> 5`` and ``b =
    y[2i+1] >> 6``, exact in float64 (an int32 converts faster)."""
    a, b = np.right_shift(y[0::2], 5, out=z[:_BLOCK]), np.right_shift(y[1::2], 6, out=z[_BLOCK:])
    out = a.view(np.int32) * 67108864.0
    out += b.view(np.int32)
    out *= 1.0 / 9007199254740992.0
    return out


def _untemper(y: Any) -> Any:
    y = y ^ (y >> 18)
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):  # each pass recovers seven more low bits
        x = y ^ ((x << 7) & 0x9D2C5680)
    return x ^ (x >> 11) ^ (x >> 22)


class StreamSet:
    """The ``random.Random(seed)`` stream of each of ``seeds``, drawn together:
    column *b* of ``mt`` is stream *b*'s MT19937 state, ``buf[:, b]`` the 312
    doubles it yields and ``pos[b]`` how many of them it has drawn.  ``rows``
    name distinct streams; a stream twists only when a draw runs past its
    buffer, so one that no draw names never moves."""

    def __init__(self, np: Any, seeds: Sequence[int]) -> None:
        # A fresh stream's first 624 outputs (its first twist's), least
        # significant first; untempered, they are the twisted state.
        raw = b"".join(
            random.Random(seed).getrandbits(32 * _N).to_bytes(4 * _N, "little") for seed in seeds
        )
        words = np.frombuffer(raw, "<u4").reshape(len(seeds), _N).T.astype(np.uint32, order="C")
        self.np, self.work = np, np.empty((2,) + words.shape, dtype=np.uint32)
        self.mt, self.buf = _untemper(words), _doubles(np, words, self.work[0])
        self.pos = np.zeros(len(seeds), dtype=np.int64)

    def block(self, rows: Any, k: int) -> Any:
        """The next *k* draws of each stream in ``rows``, as ``(len(rows), k)``:
        one slice of the buffers when the streams share a position."""
        at = self.pos[rows]
        if not at.size or (at != at[0]).any():
            return self.ragged(rows, [k] * at.size).reshape(at.size, k)
        start = int(at[0])
        if start + k <= _BLOCK:
            self.pos[rows] = start + k
            return self.buf[start : start + k, rows].T
        return self._draw(rows, at + k, start)[:k, rows].T

    def ragged(self, rows: Any, counts: Any) -> Any:
        """The next ``counts[i]`` draws of stream ``rows[i]``, concatenated."""
        np = self.np
        rows = np.asarray(rows, dtype=np.intp)
        start = self.pos[rows]
        end = start + np.asarray(counts, dtype=np.int64)
        flat = self._draw(rows, end, 0)
        parts = [flat[s:e, r] for r, s, e in zip(rows.tolist(), start.tolist(), end.tolist())]
        return np.concatenate(parts or [np.empty(0)])

    def _draw(self, rows: Any, end: Any, start: int) -> Any:
        """Every stream's buffer from ``start`` on, extended by one page per
        twist that some stream of ``rows`` runs into, drawing up to ``end``.
        Only those streams twist (a column is stale past the stream's own
        pages), and ``pos`` moves to ``end``."""
        np = self.np
        rows = np.asarray(rows, dtype=np.intp)
        pages = [self.buf[start:]]
        while (more := end > _BLOCK * len(pages)).any():
            if more.all() and rows.size == self.pos.size:  # every stream: in place
                self.buf = _next_page(np, self.mt, self.work)
            else:
                twisting = rows[more]
                mt = self.mt[:, twisting]
                page = _next_page(np, mt, np.empty((2,) + mt.shape, dtype=np.uint32))
                self.mt[:, twisting] = mt
                self.buf = self.buf.copy()  # an earlier page views it
                self.buf[:, twisting] = page
            pages.append(self.buf)
        self.pos[rows] = end - _BLOCK * (np.maximum(end - 1, 0) // _BLOCK)
        return pages[0] if len(pages) == 1 else np.concatenate(pages)


def _self_check(np: Any) -> bool:
    """True iff :class:`StreamSet` draws what ``random.Random`` draws, across twists."""
    seeds, counts = (0xC0FFEE, 2**70 + 13, 0), (700, 5, 0)
    refs = [random.Random(seed) for seed in seeds]
    streams = StreamSet(np, seeds)
    got = streams.block([0, 1, 2], 7).ravel().tolist() + streams.ragged([0, 1, 2], counts).tolist()
    want = [ref.random() for ref in refs for _ in range(7)]
    want += [ref.random() for ref, k in zip(refs, counts) for _ in range(k)]
    return got == want


def get_numpy() -> Any:
    """Return the numpy module, or ``None`` when absent/disabled/unfaithful.

    The env var is consulted on every call (tests toggle it); the import and
    the stream self-check run once per process.
    """
    if os.environ.get(NUMPY_ENV):
        return None
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        _NUMPY_CHECKED = True
        # The array tier's only BLAS calls are tiny count products: one
        # OpenBLAS thread spares the thread pool's start-up (a user's own
        # setting still wins).
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        try:
            import numpy  # noqa: PLC0415 - optional accelerator
        except ImportError:
            numpy = None
        if numpy is not None and not _self_check(numpy):  # pragma: no cover
            numpy = None
        _NUMPY = numpy
    return _NUMPY
