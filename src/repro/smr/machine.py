"""Deterministic state machines applied to the replicated log.

Commands must be hashable (they travel through consensus as values) and
deterministic: every replica applying the same log prefix reaches the same
state — checked by :meth:`StateMachine.digest` comparisons in tests.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Tuple

from repro.utils.digests import sha256

#: Commands are immutable tuples ``(op, *args)`` — hashable by construction.
Command = Tuple


class StateMachine(abc.ABC):
    """A deterministic application replicated via consensus."""

    @abc.abstractmethod
    def apply(self, command: Command) -> Any:
        """Apply one command, returning its output."""

    @abc.abstractmethod
    def digest(self) -> str:
        """A deterministic fingerprint of the current state."""


class KeyValueStore(StateMachine):
    """A string key-value store.

    Commands: ``("set", key, value)``, ``("get", key)``, ``("del", key)``.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}

    def apply(self, command: Command) -> Any:
        if not isinstance(command, tuple) or not command:
            raise ValueError(f"malformed command: {command!r}")
        op = command[0]
        if op == "set":
            _, key, value = command
            self._data[key] = value
            return value
        if op == "get":
            _, key = command
            return self._data.get(key)
        if op == "del":
            _, key = command
            return self._data.pop(key, None)
        raise ValueError(f"unknown operation: {op!r}")

    def get(self, key: str) -> Optional[Any]:
        """Local read (not linearized — test convenience)."""
        return self._data.get(key)

    def digest(self) -> str:
        blob = repr(sorted(self._data.items()))
        return sha256(blob.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self._data)

