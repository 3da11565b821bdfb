"""Replicated log semantics: in-order commits only."""

import pytest

from repro.smr.log import LogEntry, ReplicatedLog


def test_commit_in_order_and_read():
    log = ReplicatedLog()
    for slot, command in enumerate([("a",), ("b",), ("c",)]):
        log.commit(LogEntry(slot, command))
    assert len(log) == 3
    assert [entry.command for entry in log.committed_prefix()] == [
        ("a",), ("b",), ("c",),
    ]


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
