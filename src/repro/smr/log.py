"""The replicated log: one consensus-decided entry per slot, in slot order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.smr.machine import Command


@dataclass(frozen=True)
class LogEntry:
    """A decided slot."""

    slot: int
    command: Command
    #: How many phases the deciding consensus instance took.
    phases: Optional[int] = None


class ReplicatedLog:
    """An append-only log committed in slot order from slot 0.

    The next commit is slot ``len(log)``; re-committing an earlier slot with
    the same command is a no-op.  A conflicting commit raises — it would
    mean consensus agreement was violated upstream — and so does a commit
    past the end, which would leave a gap in the applied sequence (a driver
    buffers out-of-order decides itself and commits in order).
    """

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []

    def commit(self, entry: LogEntry) -> None:
        entries = self._entries
        slot = entry.slot
        if slot == len(entries):
            entries.append(entry)
        elif 0 <= slot < len(entries):
            existing = entries[slot]
            if existing.command != entry.command:
                raise ValueError(
                    f"slot {slot} already committed with "
                    f"{existing.command!r}, refusing {entry.command!r}"
                )
        else:
            raise ValueError(
                f"slot {slot} committed out of order: the next slot is "
                f"{len(entries)}"
            )

    def committed_prefix(self) -> Iterator[LogEntry]:
        """Every committed entry, from slot 0 in order."""
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
