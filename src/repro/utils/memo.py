"""Outcome memoization: replay a computed value *or* the exception it raised.

Campaign workers re-resolve the same few dozen grid cells thousands of
times; both the successful resolution and the rejection verdict are pure
functions of the key, so either is cached and replayed.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Hashable, Tuple, Type, TypeVar

T = TypeVar("T")

#: Cache slot: ``(ok, value-or-exception)``.
Outcome = Tuple[bool, object]


def cached_outcome(
    cache: Dict[Hashable, Outcome],
    key: Hashable,
    compute: Callable[[], T],
    cache_exceptions: Tuple[Type[BaseException], ...] = (Exception,),
) -> T:
    """``compute()`` memoized under ``key``, exceptions included.

    A raise from ``compute`` matching ``cache_exceptions`` is cached and
    re-raised on every later call with the same key.  The first raise
    propagates with its original traceback (so a genuine bug surfaces with
    the failing frames intact); the cache keeps a copy — ``copy.copy``
    carries ``args`` and attributes but no traceback, cause or context —
    and every replay raises a fresh copy of that.  A replayed object is
    the caller's alone: its traceback (and the caller frames it references)
    dies with the caller's handler instead of living on in the cache.
    """
    hit = cache.get(key)
    if hit is None:
        try:
            value = compute()
        except cache_exceptions as exc:
            cache[key] = (False, copy.copy(exc))
            raise
        cache[key] = (True, value)
        return value
    ok, value = hit
    if not ok:
        raise copy.copy(value)  # type: ignore[misc]
    return value  # type: ignore[return-value]

