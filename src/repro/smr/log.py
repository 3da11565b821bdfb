"""The replicated log: one consensus-decided entry per slot, in slot order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.smr.machine import Command
from repro.utils.digests import blake2b, sha256

#: Bytes of the per-slot fingerprint a log keeps to check re-commits.
_SLOT_BYTES = 16


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

    The log keeps no entry.  A command is encoded as the UTF-8 bytes of its
    elements' joined ``repr``s; :meth:`digest` is a running SHA-256 over
    every committed encoding in slot order, and each slot keeps a 16-byte
    BLAKE2b of its own encoding, so two commands conflict exactly when
    their encodings differ.  A log of ``s`` slots holds ``16 s`` bytes.
    Both hashes are CPython's builtins from :mod:`repro.utils.digests`, so
    a serve loads no OpenSSL.
    """

    def __init__(self) -> None:
        self._sha = sha256()
        self._slots = bytearray()

    def commit(self, entry: LogEntry) -> None:
        data = "".join(map(repr, entry.command)).encode("utf-8")
        fingerprint = blake2b(data, digest_size=_SLOT_BYTES).digest()
        slot = entry.slot
        committed = len(self)
        if slot == committed:
            self._sha.update(data)
            self._slots += fingerprint
        elif 0 <= slot < committed:
            start = slot * _SLOT_BYTES
            if self._slots[start:start + _SLOT_BYTES] != fingerprint:
                raise ValueError(
                    f"slot {slot} already committed with a different "
                    f"command, refusing {entry.command!r}"
                )
        else:
            raise ValueError(
                f"slot {slot} committed out of order: the next slot is "
                f"{committed}"
            )

    def digest(self) -> str:
        """SHA-256 hex digest of the committed commands, from slot 0 in order."""
        return self._sha.hexdigest()

    def __len__(self) -> int:
        return len(self._slots) // _SLOT_BYTES
