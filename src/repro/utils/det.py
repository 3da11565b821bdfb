"""Deterministic helpers shared by FLV functions and the generic algorithm.

The generic algorithm (line 11 of Algorithm 1) requires processes to "choose
deterministically a value" among the received votes.  For termination all
correct processes must make the *same* choice whenever they hold the same
message vector (which ``Pcons`` guarantees in good phases), so the choice
function must depend only on the multiset of candidate values.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable, Iterable, Optional


def _sort_key(value: Hashable) -> tuple[str, str]:
    """A total order over arbitrary hashable values.

    Python cannot compare values of unrelated types, so we order first by the
    type name and then by ``repr``.  The ordering is arbitrary but total and
    deterministic, which is all line 11 of Algorithm 1 requires.  Kept
    deliberately cache-free: memoizing by equality would let equal values
    with distinct reprs (``Decimal('1')`` / ``Decimal('1.0')``) alias a
    slot, making the choice depend on process history — which would break
    the campaign engine's identical-results-at-any-worker-count guarantee.
    """
    return (type(value).__name__, repr(value))


def deterministic_choice(values: Iterable[Hashable]) -> Hashable:
    """Deterministically pick one value out of ``values``.

    Raises :class:`ValueError` on an empty iterable: callers must only invoke
    the choice when at least one vote was received.

    Duplicates are collapsed first (``dict.fromkeys``, keeping the first
    occurrence as the representative), so the ``repr``-based key is computed
    once per distinct value instead of once per vote — a vector of n votes
    usually carries only a couple of distinct values.  The result is a pure
    function of the value sequence; among ``==``-equal candidates the first
    received is returned, which is sound because the library treats equal
    values as interchangeable everywhere (FLV counters, histories and
    decision sets all collapse them).
    """
    pool = list(dict.fromkeys(values))
    if not pool:
        raise ValueError("deterministic_choice requires at least one value")
    return min(pool, key=_sort_key)


def value_counts(values: Iterable[Hashable]) -> Counter:
    """Multiplicity of each value in ``values`` (Counter preserves multiset)."""
    return Counter(values)


def majority_value(values: Iterable[Hashable]) -> Optional[Hashable]:
    """Return the value held by a strict majority of ``values``, if any.

    Used by Algorithm 4 line 8 ("a majority of messages (v, -, -)") for the
    unanimity branch of the class-3 FLV function.
    """
    pool = list(values)
    if not pool:
        return None
    counts = Counter(pool)
    value, count = counts.most_common(1)[0]
    if 2 * count > len(pool):
        return value
    return None


def most_often_smallest(values: Iterable[Hashable]) -> Any:
    """The "smallest most often received value" rule of OneThirdRule (Alg. 5).

    Picks the value with maximal multiplicity; ties are broken by the
    deterministic total order used in :func:`deterministic_choice`.
    """
    pool = list(values)
    if not pool:
        raise ValueError("most_often_smallest requires at least one value")
    counts = Counter(pool)
    best = max(counts.items(), key=lambda item: (item[1],))[1]
    candidates = [value for value, count in counts.items() if count == best]
    return min(candidates, key=_sort_key)
