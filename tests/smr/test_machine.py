"""State machines: determinism and command semantics."""

import pytest

from repro.smr.machine import KeyValueStore
from tests.smr.counter import CounterMachine


class TestKeyValueStore:
    def test_set_get(self):
        kv = KeyValueStore()
        kv.apply(("set", "x", 1))
        assert kv.apply(("get", "x")) == 1
        assert kv.get("x") == 1

    def test_get_missing(self):
        assert KeyValueStore().apply(("get", "nope")) is None

    def test_delete(self):
        kv = KeyValueStore()
        kv.apply(("set", "x", 1))
        assert kv.apply(("del", "x")) == 1
        assert kv.get("x") is None
        assert kv.apply(("del", "x")) is None

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            KeyValueStore().apply(("frobnicate", "x"))

    def test_malformed_command(self):
        with pytest.raises(ValueError):
            KeyValueStore().apply("not-a-tuple")

    def test_digest_tracks_state(self):
        a, b = KeyValueStore(), KeyValueStore()
        assert a.digest() == b.digest()
        a.apply(("set", "x", 1))
        assert a.digest() != b.digest()
        b.apply(("set", "x", 1))
        assert a.digest() == b.digest()

    def test_digest_order_independent(self):
        a, b = KeyValueStore(), KeyValueStore()
        a.apply(("set", "x", 1))
        a.apply(("set", "y", 2))
        b.apply(("set", "y", 2))
        b.apply(("set", "x", 1))
        assert a.digest() == b.digest()

    def test_len(self):
        kv = KeyValueStore()
        kv.apply(("set", "x", 1))
        kv.apply(("set", "y", 2))
        assert len(kv) == 2


class TestCounterMachine:
    def test_add_and_reset(self):
        counter = CounterMachine()
        assert counter.apply(("add", 5)) == 5
        assert counter.apply(("add", -2)) == 3
        assert counter.apply(("reset",)) == 0

    def test_digest(self):
        a, b = CounterMachine(), CounterMachine()
        a.apply(("add", 1))
        assert a.digest() != b.digest()

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            CounterMachine().apply(("mul", 2))
