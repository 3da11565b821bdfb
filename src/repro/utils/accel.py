"""Optional numpy acceleration with exact scalar-stream fidelity.

The batch backend (:mod:`repro.engine.batch`) draws each run's latency
samples and loss coins in bulk, but the project's correctness contract is
*byte identity with the scalar oracle*: every accelerated path must consume
and produce exactly the same underlying Mersenne-Twister stream as
``random.Random``.  Two pieces make that possible:

* :func:`get_numpy` — imports numpy at most once per process, gated by the
  ``REPRO_NO_NUMPY`` env var, and **self-checks the state transplant** on
  first use: a ``numpy.random.RandomState`` seeded by transplanting a
  ``random.Random``'s MT19937 state must reproduce that stream bit for bit
  (both generators implement the same ``genrand_res53`` double derivation).
  If the check fails on an exotic numpy build, numpy is treated as absent
  and the array tier demotes.  ``numpy.random`` imports :mod:`secrets` and
  so :mod:`hmac`, which maps OpenSSL's ``libcrypto``: the parent of a
  pooled campaign whose grid can batch imports :mod:`hashlib` before
  forking so workers share it.  Only a batch group loads numpy, so a grid
  that cannot batch (too few repetitions, or chunks too small to hold a
  batch group) skips the import and maps OpenSSL nowhere.

* :class:`BlockRng` — one run's ``random.Random(seed)`` stream as a
  transplanted ``RandomState``, drawn in blocks: ``block(k)`` returns the
  next *k* uniforms, identical to *k* successive
  ``random.Random(seed).random()`` calls, so the array tier samples blocks
  where the scalar oracle samples scalars without moving a single draw.
  It needs numpy: its one caller, the columnar-state tier, demotes the
  cell to the scalar oracle when :func:`get_numpy` returns ``None``.
"""

from __future__ import annotations

import os
import random
import weakref
from typing import Any, List, Optional, Sequence

NUMPY_ENV = "REPRO_NO_NUMPY"

_NUMPY: Any = None
_NUMPY_CHECKED = False


# Recycled ``RandomState`` instances.  Constructing one costs ~100µs (the
# MT19937 bit-generator __init__ dominates, independent of the seed) while
# reseeding an existing one costs ~10µs, so per-run stream builders reuse
# retired instances.  A state is retired by the ``weakref.finalize`` hook
# installed on its owning :class:`BlockRng` — at that point the BlockRng
# held the only reference, so handing the state to the next owner is safe.
# The cap bounds worst-case retention to ~1.5 MB of MT19937 state.
_STATE_POOL: List[Any] = []
_POOL_CAP = 512


def _acquire_state(np_module: Any) -> Any:
    if _STATE_POOL:
        return _STATE_POOL.pop()
    return np_module.random.RandomState()


def _release_state(state: Any) -> None:
    if len(_STATE_POOL) < _POOL_CAP:
        _STATE_POOL.append(state)


def _transplant(np_module: Any, state: Any, rng: random.Random) -> Any:
    """Re-seed ``state`` to continue ``rng``'s MT19937 stream."""
    version, internal, _gauss = rng.getstate()
    if version != 3:  # pragma: no cover - future CPython format change
        raise ValueError(f"unsupported random.Random state version {version}")
    key, pos = internal[:-1], internal[-1]
    state.set_state(("MT19937", np_module.array(key, dtype=np_module.uint32), pos))
    return state


def _mt_key(seed: int) -> List[int]:
    """CPython ``random.Random``'s MT19937 ``init_by_array`` key for ``seed``:
    the little-endian 32-bit chunking of ``abs(seed)``."""
    n = abs(int(seed))
    if n == 0:
        return [0]
    key = []
    while n:
        key.append(n & 0xFFFFFFFF)
        n >>= 32
    return key


_FAST_SEED: Optional[bool] = None


def _fast_seed_supported(np_module: Any) -> bool:
    """One-time check that direct integer seeding is stream-exact.

    numpy's legacy array seeding runs the same ``init_by_array`` expansion
    CPython uses, so ``RandomState.seed(_mt_key(s))`` should equal
    transplanting a fresh ``random.Random(s)`` — skipping the boxed-int
    state round-trip.  The key must be a plain list: a one-element ndarray
    is routed through numpy's *scalar* seeding (``init_genrand``), a
    different expansion.  If an exotic numpy build disagrees, BlockRng
    falls back to the transplant path.
    """
    global _FAST_SEED
    if _FAST_SEED is None:
        state = np_module.random.RandomState()
        ok = True
        for probe in (0, 1, 0xDEADBEEF, 2**40 + 7, 2**70 + 13):
            state.seed(_mt_key(probe))
            ref = random.Random(probe)
            if any(float(v) != ref.random() for v in state.random_sample(4)):
                ok = False
                break
        _FAST_SEED = ok
    return _FAST_SEED


def _self_check(np_module: Any) -> bool:
    """True iff the transplant reproduces the scalar stream bit for bit."""
    probe = random.Random(0xC0FFEE)
    # Burn a few draws so the check covers a mid-stream position, not just
    # a freshly seeded state.
    for _ in range(7):
        probe.random()
    state = _transplant(np_module, np_module.random.RandomState(), probe)
    block = state.random_sample(16)
    return all(float(v) == probe.random() for v in block)


def get_numpy() -> Any:
    """Return the numpy module, or ``None`` when absent/disabled/unfaithful.

    The env var is consulted on every call (tests toggle it); the import and
    the transplant self-check run once per process.
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


class BlockRng:
    """The ``random.Random(seed)`` stream, drawn in blocks."""

    __slots__ = ("_state", "__weakref__")

    def __init__(self, seed: int) -> None:
        np_module = get_numpy()
        if np_module is None:
            raise RuntimeError("BlockRng needs numpy (see get_numpy)")
        state = _acquire_state(np_module)
        if _fast_seed_supported(np_module):
            state.seed(_mt_key(seed))
        else:
            _transplant(np_module, state, random.Random(seed))
        self._state = state
        weakref.finalize(self, _release_state, state)

    def block(self, k: int) -> Sequence[float]:
        """The next *k* uniforms of the stream, as an array."""
        return self._state.random_sample(k)
