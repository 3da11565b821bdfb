"""Seeded RNG streams: reproducibility and independence."""

from repro.utils.rng import SeededRng


def test_same_key_same_stream():
    a = SeededRng(1).stream("coin", process=2)
    b = SeededRng(1).stream("coin", process=2)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_independent():
    a = SeededRng(1).stream("coin")
    b = SeededRng(1).stream("latency")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_scope_independent():
    a = SeededRng(1).stream("coin", process=0)
    b = SeededRng(1).stream("coin", process=1)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_differ():
    a = SeededRng(1).stream("coin")
    b = SeededRng(2).stream("coin")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

