"""The columnar reductions against their plain definitions.

:func:`repro.core.columnar.count_pairs` picks a batched float32 product
or a bool sum by the shape of its pair table; both must give the integer
counts of the bool-sum definition, on every shape the array tier passes.
The identity suite holds the reductions to the scalar FLVs end to end;
this holds each one to its definition.
"""

from __future__ import annotations

import pytest

from repro.core.columnar import (
    NULL_CODE,
    count_pairs,
    counts_by_value,
    pick_min_code,
)
from repro.utils.accel import get_numpy

np = get_numpy()
pytestmark = pytest.mark.skipif(np is None, reason="needs numpy")


@pytest.mark.parametrize(
    "pairs_shape, valid_shape",
    [
        ((6, 1, 5, 9), (6, 4, 9)),  # one table for every receiver: product
        ((6, 4, 5, 9), (6, 4, 9)),  # per-receiver tables: bool sum
        ((6, 3, 9), (6, 9)),  # an adaptive liar's tally row
        ((1, 3, 9), (1, 9)),  # ... in a one-run cell
    ],
)
def test_count_pairs_is_its_definition(pairs_shape, valid_shape):
    rng = np.random.default_rng(7)
    pairs = rng.random(pairs_shape) < 0.5
    valid = rng.random(valid_shape) < 0.6
    got = count_pairs(np, pairs, valid)
    expected = (valid[..., None, :] & pairs).sum(axis=-1)
    assert got.dtype == np.int64 and got.tolist() == expected.tolist()


def test_counts_by_value_and_pick_min_code_are_their_loops():
    rng = np.random.default_rng(11)
    valid = rng.random((5, 3, 8)) < 0.7
    for votes in (rng.integers(-1, 4, (5, 1, 8)), rng.integers(-1, 4, (5, 3, 8))):
        counts = counts_by_value(np, valid, votes, 4)
        for b, d in np.ndindex(5, 3):
            row = votes[b, min(d, votes.shape[1] - 1)]
            assert counts[b, d].tolist() == [
                int(((row == value) & valid[b, d]).sum()) for value in range(4)
            ]
        picked = pick_min_code(np, counts > 1)
        for b, d in np.ndindex(5, 3):
            winners = [v for v in range(4) if counts[b, d, v] > 1]
            assert picked[b, d] == (min(winners) if winners else NULL_CODE)
