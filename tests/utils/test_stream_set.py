"""The vectorized MT19937 stream set draws what ``random.Random`` draws.

Each test holds one ``random.Random(seed)`` per stream as the reference and
checks every draw of :class:`~repro.utils.accel.StreamSet` against it:
equal blocks, ragged draws across the 312-double buffer edge, zero counts,
and streams that drop out of the draws.
"""

from __future__ import annotations

import random

import pytest

from repro.utils.accel import StreamSet, get_numpy

np = get_numpy()
pytestmark = pytest.mark.skipif(np is None, reason="StreamSet needs numpy")

#: Zero, the 32-bit edges, a negative seed (``random`` seeds by ``abs``)
#: and keys of three and three-plus words.
SEEDS = (0, 1, -7, 2**32 - 1, 2**32, 2**64 + 3, 2**70 + 13)


def fresh(seeds=SEEDS):
    return StreamSet(np, seeds), [random.Random(seed) for seed in seeds]


def expect(refs, rows, counts):
    return [refs[row].random() for row, count in zip(rows, counts) for _ in range(count)]


def test_every_seed_across_three_twists():
    streams, refs = fresh()
    rows = list(range(len(SEEDS)))
    got = [streams.block(rows, k) for k in (5, 300, 400, 350)]  # 1,055 draws
    for i, ref in enumerate(refs):
        assert [float(v) for block in got for v in block[i]] == [
            ref.random() for _ in range(1055)
        ]


def test_equal_blocks_on_a_subset_of_live_streams():
    streams, refs = fresh()
    for rows, k in (([0, 2, 5], 100), ([2, 5], 250), ([0, 2, 3, 5], 40), ([5], 600)):
        block = streams.block(rows, k)
        assert block.shape == (len(rows), k)
        assert block.ravel().tolist() == expect(refs, rows, [k] * len(rows))


def test_equal_block_on_streams_at_different_positions():
    streams, refs = fresh()
    streams.ragged([0, 1], [3, 311])
    expect(refs, [0, 1], [3, 311])
    assert streams.block([0, 1, 2], 10).ravel().tolist() == expect(refs, [0, 1, 2], [10] * 3)


def test_ragged_draws_cross_buffer_edges():
    streams, refs = fresh()
    rows = [0, 1, 3, 4, 6]
    for counts in ([310, 1, 312, 0, 313], [3, 311, 1, 624, 2], [300, 5, 700, 9, 1]):
        assert streams.ragged(rows, counts).tolist() == expect(refs, rows, counts)


def test_single_draws_longer_than_two_buffers():
    """An n = 30 pre-GST round draws two doubles per message, more than
    882 per run: one draw spans three or four twists."""
    streams, refs = fresh()
    rows = [1, 2, 6]
    for counts in ([900, 1800, 883], [1, 1000, 1250]):
        assert streams.ragged(rows, counts).tolist() == expect(refs, rows, counts)
    assert streams.block(rows, 1741).ravel().tolist() == expect(refs, rows, [1741] * 3)


def test_zero_count_leaves_a_stream_unmoved():
    streams, refs = fresh()
    streams.ragged([0, 1, 2], [0, 312, 0])
    expect(refs, [1], [312])
    assert streams.ragged([], []).tolist() == []
    assert streams.block([0, 2], 0).shape == (2, 0)
    assert streams.block([0, 1, 2], 5).ravel().tolist() == expect(refs, [0, 1, 2], [5] * 3)


def test_finished_streams_never_advance():
    """A stream no draw names keeps its state, buffer and position while
    the others twist, and resumes exactly where it stopped."""
    streams, refs = fresh()
    rows = list(range(len(SEEDS)))
    streams.block(rows, 200)
    expect(refs, rows, [200] * len(rows))
    finished = [1, 4]
    live = [row for row in rows if row not in finished]
    kept = [array[..., finished].copy() for array in (streams.mt, streams.buf, streams.pos)]
    for k in (150, 400, 900):
        streams.block(live, k)
        streams.ragged(live, [k, 1, 2, 3, 4])
    for before, array in zip(kept, (streams.mt, streams.buf, streams.pos)):
        assert (array[..., finished] == before).all()
    assert streams.ragged(finished, [500, 5]).tolist() == expect(refs, finished, [500, 5])
