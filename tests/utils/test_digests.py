"""The builtin digests give :mod:`hashlib`'s bytes, and so does the fallback."""

from __future__ import annotations

import hashlib
import importlib
import sys

import pytest

import repro.utils.digests as digests

INPUTS = [b"", b"consensus", bytes(range(256)) * 4096]  # the last is 1 MiB
PARTS = [b"slot 0;", b"", b"slot 1;" * 1000, bytes(range(256))]


def check_same_bytes(module) -> None:
    for data in INPUTS:
        assert module.sha256(data).digest() == hashlib.sha256(data).digest()
        for size in (8, 16):
            assert (
                module.blake2b(data, digest_size=size).digest()
                == hashlib.blake2b(data, digest_size=size).digest()
            )
    ours, theirs = module.sha256(), hashlib.sha256()
    for part in PARTS:
        ours.update(part)
        theirs.update(part)
    assert ours.hexdigest() == theirs.hexdigest()


def test_builtin_digests_match_hashlib():
    check_same_bytes(digests)


@pytest.fixture
def without_builtins(monkeypatch):
    """``repro.utils.digests`` reloaded as on a build lacking the modules."""
    for name in ("_sha2", "_sha256", "_blake2"):
        monkeypatch.setitem(sys.modules, name, None)
    yield importlib.reload(digests)
    monkeypatch.undo()
    importlib.reload(digests)


def test_fallback_digests_match_hashlib(without_builtins):
    assert without_builtins.sha256 is hashlib.sha256
    assert without_builtins.blake2b is hashlib.blake2b
    check_same_bytes(without_builtins)
