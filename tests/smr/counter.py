"""A test state machine: one integer counter."""

import hashlib
from typing import Any

from repro.smr.machine import Command, StateMachine


class CounterMachine(StateMachine):
    """A single integer counter: ``("add", k)`` and ``("reset",)``."""

    def __init__(self) -> None:
        self.value = 0

    def apply(self, command: Command) -> Any:
        op = command[0]
        if op == "add":
            self.value += command[1]
            return self.value
        if op == "reset":
            self.value = 0
            return 0
        raise ValueError(f"unknown operation: {op!r}")

    def digest(self) -> str:
        return hashlib.sha256(str(self.value).encode()).hexdigest()
