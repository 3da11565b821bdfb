"""Replicated log semantics: in-order commits only."""

import hashlib

import pytest

from repro.smr.log import LogEntry, ReplicatedLog


def _joined_repr_sha256(commands):
    """The serve's log digest as it was computed from retained entries."""
    digest = hashlib.sha256()
    for command in commands:
        digest.update("".join(map(repr, command)).encode("utf-8"))
    return digest.hexdigest()


def test_commit_in_order_and_read():
    log = ReplicatedLog()
    for slot, command in enumerate([("a",), ("b",), ("c",)]):
        log.commit(LogEntry(slot, command))
    assert len(log) == 3
    assert log.digest() == _joined_repr_sha256([("a",), ("b",), ("c",)])


def test_digest_equals_the_joined_repr_sha256():
    batches = [
        (("set", "c0k0", 0), ("set", "c1k0", 0)),
        (("set", "c0k1", 1),),
        (("del", "ké"), ("get", "c0k0"), ("set", "x", 2.5)),
    ]
    log = ReplicatedLog()
    assert log.digest() == hashlib.sha256().hexdigest()
    for slot, batch in enumerate(batches):
        log.commit(LogEntry(slot, batch, phases=slot + 1))
    log.commit(LogEntry(1, batches[1]))  # a re-commit adds nothing
    assert log.digest() == _joined_repr_sha256(batches)


def test_conflicting_commit_rejected():
    log = ReplicatedLog()
    log.commit(LogEntry(0, ("a",)))
    with pytest.raises(ValueError, match="already committed"):
        log.commit(LogEntry(0, ("b",)))


def test_idempotent_commit_ok():
    log = ReplicatedLog()
    log.commit(LogEntry(0, ("a",)))
    log.commit(LogEntry(1, ("b",)))
    log.commit(LogEntry(0, ("a",)))  # same command: fine
    assert len(log) == 2


@pytest.mark.parametrize("slot", [1, 5, -1])
def test_skipped_slot_rejected(slot):
    # The driver buffers out-of-order decides; a gap reaching the log is a bug.
    log = ReplicatedLog()
    with pytest.raises(ValueError, match="out of order: the next slot is 0"):
        log.commit(LogEntry(slot, ("a",)))
    assert len(log) == 0


def test_phases_metadata():
    entry = LogEntry(0, ("a",), phases=2)
    assert entry.phases == 2
