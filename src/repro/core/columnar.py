"""Columnar FLV evaluation: Algorithms 2–4 as array reductions.

The scalar FLV classes (:mod:`repro.core.flv_class1` …ss3) evaluate one
process's message vector at a time.  The batch backend's columnar-state
tier (:mod:`repro.engine.batch.columnar_state`) instead evaluates **every
receiver of every run of a campaign cell at once**: messages live in
``(B runs, D receivers, S senders)`` arrays and each FLV class becomes a
handful of counting/argmax reductions.  This module holds those
reductions; the scalar classes remain the oracle they are tested against.

Value encoding
==============

A cell's value alphabet is closed (honest initials plus every payload its
run-invariant Byzantine strategies can utter), so values are encoded as
small ints.  :func:`encode_alphabet` assigns codes **in the total order of
:func:`repro.utils.det._sort_key`**, which makes every
``deterministic_choice`` in the algorithm equal to a plain ``min`` over
codes (:func:`pick_min_code`) — the deterministic tie-break costs one
reduction instead of a per-receiver Python call.  Code ``-1`` is the
paper's ``null``; the ``?`` result (``ANY``) is returned as a separate
boolean mask because resolving it (line 11 of Algorithm 1) needs the
received votes, which the caller already holds.

Every function takes the numpy module as its explicit first argument (the
caller obtained it via :func:`repro.utils.accel.get_numpy`); this module
imports nothing optional, so importing it never pulls numpy in.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Tuple

from repro.utils.det import _sort_key

__all__ = [
    "NULL_CODE",
    "count_pairs",
    "counts_by_value",
    "encode_alphabet",
    "flv_class1_columnar",
    "flv_class2_columnar",
    "flv_class3_columnar",
    "pick_min_code",
    "resolve_any_columnar",
    "survivor_mask",
    "threshold_pick",
]

#: The paper's ``null`` (⊥) in code space.
NULL_CODE = -1


def encode_alphabet(values: Iterable[Hashable]) -> List[Hashable]:
    """The cell's value alphabet, ordered so that code order = choice order.

    Returns the distinct values sorted by the deterministic total order of
    :func:`repro.utils.det._sort_key`; the code of a value is its index.
    Raises :class:`ValueError` when two distinct values share a sort key
    (indistinguishable under the deterministic choice) — callers treat
    that as columnar-state ineligibility and demote the cell.
    """
    ordered = sorted(set(values), key=_sort_key)
    keys = [_sort_key(value) for value in ordered]
    if len(set(keys)) != len(keys):
        raise ValueError("value alphabet has a deterministic-order collision")
    return ordered


def pick_min_code(np, mask):
    """``deterministic_choice`` over code space: the least set code, or −1.

    ``mask`` is ``(..., V)`` bool — which values are candidates; the result
    is ``(...,)`` int.  Because codes are assigned in ``_sort_key`` order,
    the minimum set code — the first ``True``, which ``argmax`` finds — *is*
    the deterministic choice among candidates.
    """
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), NULL_CODE)


def count_pairs(np, pairs, valid):
    """``count[..., m] = |{o valid : pairs[..., m, o]}|``.

    ``pairs`` is ``(..., M, S)`` bool and ``valid`` ``(..., S)``; the
    result is ``(valid[..., None, :] & pairs).sum(-1)``.  That bool sum
    along a short last axis is numpy's slowest reduction, so where one
    pair table serves every receiver — ``(B, 1, M, S)`` against ``(B, D,
    S)`` — it runs as a batched float32 matrix product instead (exact
    below 2**24, and the table is never copied per receiver).
    """
    if pairs.shape[-3] == 1:
        table = pairs[..., 0, :, :].swapaxes(-1, -2).astype(np.float32)
        return np.matmul(valid.astype(np.float32), table).astype(np.int64)
    return (valid[..., None, :] & pairs).sum(axis=-1)


def counts_by_value(np, valid, votes, n_values: int):
    """Per-value multiplicities: ``counts[..., v] = |{m valid : vote_m = v}|``.

    ``valid``/``votes`` are ``(B, D, S)``; the result is ``(B, D, V)``:
    :func:`count_pairs` over the ``(vote_s = v)`` table.
    """
    codes = np.arange(n_values)[:, None]
    return count_pairs(np, votes[..., None, :] == codes, valid)


def survivor_mask(np, valid, votes, ts, slack: int):
    """Line 1 of Algorithms 3 and 4: the ``possibleVotes`` survivors.

    A message *m* survives iff
    ``|{o : vote_o = vote_m or ts_m > ts_o}| > slack`` counted over the
    valid messages *o* of the same receiver (*m* supports itself, exactly
    as in the scalar :func:`repro.core.flv_class2.survivors`).  Arrays are
    ``(B, D, S)``; the pairwise comparison materializes ``(B, D, S, S)``,
    which is small at consensus scale (S = n ≤ a few dozen).
    """
    votes_m = votes[..., :, None]
    votes_o = votes[..., None, :]
    ts_m = ts[..., :, None]
    ts_o = ts[..., None, :]
    cond = (votes_o == votes_m) | (ts_m > ts_o)
    return valid & (count_pairs(np, cond, valid) > slack)


def resolve_any_columnar(np, valid, votes, n_values: int):
    """Line 11 of Algorithm 1: deterministic choice among received votes.

    Where a receiver got no valid message the result is ``NULL_CODE`` —
    mirroring the scalar path, which maps ``?`` with an empty vector to
    ``null``.
    """
    return pick_min_code(np, counts_by_value(np, valid, votes, n_values) > 0)


def flv_class1_columnar(np, valid, votes, n_values: int, slack: int):
    """Algorithm 2 over ``(B, D, S)`` arrays → ``(concrete, any_mask)``.

    ``concrete`` is ``(B, D)`` codes (−1 where the result is not a single
    value); ``any_mask`` marks receivers whose result is ``?``.  Receivers
    that are neither hold ``null``.
    """
    counts = counts_by_value(np, valid, votes, n_values)
    received = valid.sum(axis=-1)
    correct = counts > slack
    n_correct = correct.sum(axis=-1)
    concrete = np.where(n_correct == 1, pick_min_code(np, correct), NULL_CODE)
    any_mask = (n_correct != 1) & (received > 2 * slack)
    return concrete, any_mask


def flv_class2_columnar(
    np, valid, votes, ts, n_values: int, slack: int, b: int
):
    """Algorithm 3 over ``(B, D, S)`` arrays → ``(concrete, any_mask)``."""
    surviving = survivor_mask(np, valid, votes, ts, slack)
    support = counts_by_value(np, surviving, votes, n_values)
    correct = support > b
    n_correct = correct.sum(axis=-1)
    concrete = np.where(n_correct == 1, pick_min_code(np, correct), NULL_CODE)
    received = valid.sum(axis=-1)
    any_mask = (n_correct != 1) & (received > slack + b)
    return concrete, any_mask


def flv_class3_columnar(
    np,
    valid,
    votes,
    ts,
    history_support,
    n_values: int,
    slack: int,
    b: int,
    ensure_unanimity: bool,
) -> Tuple[object, object]:
    """Algorithm 4 over ``(B, D, S)`` arrays → ``(concrete, any_mask)``.

    ``history_support[b, d, m]`` is the number of valid messages *o* (of
    the same receiver) whose history contains ``(vote_m, ts_m)`` — the
    executor computes it from its per-process history arrays and the
    Byzantine history tables, since only it knows where histories live.
    """
    surviving = survivor_mask(np, valid, votes, ts, slack)
    certified = surviving & (history_support > b)
    correct = counts_by_value(np, certified, votes, n_values) > 0
    n_correct = correct.sum(axis=-1)
    concrete = np.where(n_correct == 1, pick_min_code(np, correct), NULL_CODE)
    any_mask = n_correct > 1
    # Lines 7-9: the zero-timestamp (unanimity) branch, entered only when
    # no vote was certified.
    zero_ts = (valid & (ts == 0)).sum(axis=-1) > slack
    pending = (n_correct == 0) & zero_ts
    if ensure_unanimity:
        counts = counts_by_value(np, valid, votes, n_values)
        received = valid.sum(axis=-1)
        top = counts.max(axis=-1)
        has_majority = (2 * top > received) & (received > 0)
        majority = pick_min_code(np, counts == top[..., None])
        concrete = np.where(pending & has_majority, majority, concrete)
        any_mask = any_mask | (pending & ~has_majority)
    else:
        any_mask = any_mask | pending
    return concrete, any_mask


def threshold_pick(np, counts, threshold: int):
    """Line 31-32 of Algorithm 1: values reaching ``TD``, chosen determinately.

    ``counts`` is ``(B, D, V)``; the result is ``(B, D)`` codes, −1 where
    no value reached the threshold.  With multiple winners the minimum
    code is returned — exactly ``deterministic_choice`` on the winner set.
    """
    return pick_min_code(np, counts >= threshold)
