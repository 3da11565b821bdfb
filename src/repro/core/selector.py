"""The ``Selector(p, φ)`` abstraction and its instantiations (Sections 3.2, 4.2).

``Selector(p, φ)`` returns process ``p``'s suggestion for the validator set
of phase ``φ``.  Required properties:

* **Selector-validity** — a non-empty suggestion has more than ``b`` members;
* **Selector-strongValidity** — (needed by class-3 FLV-liveness) a non-empty
  suggestion has more than ``3b + 2f`` members;
* **Selector-liveness** — there is a good phase ``φ0`` in which (SL1) all
  correct processes suggest the same set, (SL2, FLAG = *) the set contains at
  least ``TD`` correct processes, and (SL3, FLAG = φ) the correct members of
  the set outnumber ``(|S| + b)/2``.

Instantiations implemented here, following Section 4.2:

* :class:`AllProcessesSelector` — always Π (used by all Byzantine algorithms);
* :class:`RotatingSubsetSelector` — the same rotating set of ``b + 1``
  processes at every process, different in every phase (Byzantine option);
* :class:`RotatingCoordinatorSelector` — a single rotating coordinator
  (Chandra-Toueg, benign model);
* :class:`LeaderSelector` — a single leader produced by an Ω-style oracle
  (Paxos, benign model);
* :class:`OmegaOracle` — the oracle Paxos uses by default: one leader,
  stable from phase 1.  Any ``oracle(p, φ)`` works, so a leader that
  stabilizes late is a function of the phase.
"""

from __future__ import annotations

import abc
from typing import Callable, FrozenSet, Iterable

from repro.core.types import FaultModel, Phase, ProcessId


class Selector(abc.ABC):
    """Abstract base class for Selector instantiations."""

    #: Human-readable name used in traces and reports.
    name: str = "selector"

    def __init__(self, model: FaultModel) -> None:
        self._model = model

    @property
    def model(self) -> FaultModel:
        """The (n, b, f) envelope this selector was built for."""
        return self._model

    @abc.abstractmethod
    def select(self, process: ProcessId, phase: Phase) -> FrozenSet[ProcessId]:
        """Process ``process``'s suggested validator set for ``phase``."""

    def __call__(self, process: ProcessId, phase: Phase) -> FrozenSet[ProcessId]:
        return self.select(process, phase)

    @property
    def is_static(self) -> bool:
        """True when the suggestion is the same at every process and phase.

        Enables the Section 3.1 optimization: the set need not be exchanged
        in selection messages and line 21 of Algorithm 1 can be suppressed.
        """
        return False

    @property
    def is_singleton(self) -> bool:
        """True when suggestions always have exactly one member (benign)."""
        return False

    def satisfies_validity(self, suggestion: FrozenSet[ProcessId]) -> bool:
        """Check Selector-validity for one suggestion."""
        return len(suggestion) == 0 or len(suggestion) > self._model.b

    def satisfies_strong_validity(self, suggestion: FrozenSet[ProcessId]) -> bool:
        """Check Selector-strongValidity for one suggestion."""
        bound = 3 * self._model.b + 2 * self._model.f
        return len(suggestion) == 0 or len(suggestion) > bound


class AllProcessesSelector(Selector):
    """Always suggest Π — the instantiation used by FaB Paxos, PBFT and MQB.

    Trivially satisfies validity, strongValidity and liveness (SL1 because
    the set is identical everywhere; SL2/SL3 because Π contains all
    ``n − b − f`` correct processes and ``TD ≤ n − b − f``).
    """

    name = "selector-all"

    def __init__(self, model: FaultModel) -> None:
        super().__init__(model)
        self._everyone = frozenset(model.processes)

    def select(self, process: ProcessId, phase: Phase) -> FrozenSet[ProcessId]:
        return self._everyone

    @property
    def is_static(self) -> bool:
        return True


class RotatingSubsetSelector(Selector):
    """The same set of ``size`` processes at every process, rotating by phase.

    Section 4.2 mentions the Byzantine-model option of returning a set of
    ``b + 1`` processes, identical at every process and different in every
    phase.  ``size`` defaults to ``b + 1`` (the minimum allowed by
    Selector-validity); class-3 algorithms must use ``size > 3b + 2f``.
    """

    name = "selector-rotating-subset"

    def __init__(self, model: FaultModel, size: int | None = None) -> None:
        super().__init__(model)
        self._size = size if size is not None else model.b + 1
        if self._size <= model.b:
            raise ValueError(
                f"Selector-validity requires |S| > b: size={self._size}, b={model.b}"
            )
        if self._size > model.n:
            raise ValueError(f"size {self._size} exceeds n={model.n}")

    @property
    def size(self) -> int:
        """Cardinality of every suggestion."""
        return self._size

    def select(self, process: ProcessId, phase: Phase) -> FrozenSet[ProcessId]:
        start = phase % self._model.n
        return frozenset(
            (start + offset) % self._model.n for offset in range(self._size)
        )

    @property
    def is_singleton(self) -> bool:
        return self._size == 1


class RotatingCoordinatorSelector(Selector):
    """A single coordinator ``{φ mod n}`` — Chandra-Toueg's rotating pattern.

    Only sound in the benign model (``b = 0``): a singleton set violates
    Selector-validity as soon as ``b ≥ 1``.
    """

    name = "selector-rotating-coordinator"

    def __init__(self, model: FaultModel) -> None:
        if model.b != 0:
            raise ValueError("a single rotating coordinator requires b = 0")
        super().__init__(model)

    def select(self, process: ProcessId, phase: Phase) -> FrozenSet[ProcessId]:
        return frozenset({(phase - 1) % self._model.n})

    @property
    def is_singleton(self) -> bool:
        return True


class LeaderSelector(Selector):
    """A single leader chosen by an Ω-style oracle — Paxos's pattern.

    The oracle is a callable ``(process, phase) → ProcessId``.  Before
    stabilization different processes may see different leaders (SL1 fails,
    phases may be unsuccessful); once the oracle stabilizes on a correct
    leader, Selector-liveness holds and the algorithm terminates.  Only sound
    in the benign model.
    """

    name = "selector-leader"

    def __init__(
        self,
        model: FaultModel,
        oracle: Callable[[ProcessId, Phase], ProcessId],
    ) -> None:
        if model.b != 0:
            raise ValueError("a single leader requires b = 0")
        super().__init__(model)
        self._oracle = oracle

    def select(self, process: ProcessId, phase: Phase) -> FrozenSet[ProcessId]:
        leader = self._oracle(process, phase)
        if not 0 <= leader < self._model.n:
            raise ValueError(f"oracle returned out-of-range leader {leader}")
        return frozenset({leader})

    @property
    def is_singleton(self) -> bool:
        return True


class OmegaOracle:
    """An Ω oracle that is stable from the very first phase: every process
    sees ``leader`` in every phase (the best case for :class:`LeaderSelector`:
    a correct leader is already elected)."""

    def __init__(self, leader: ProcessId) -> None:
        self._leader = leader

    def __call__(self, process: ProcessId, phase: Phase) -> ProcessId:
        return self._leader


class FixedSelector(Selector):
    """A constant, explicitly given suggestion (useful for tests/adversaries)."""

    name = "selector-fixed"

    def __init__(self, model: FaultModel, members: Iterable[ProcessId]) -> None:
        super().__init__(model)
        self._members = frozenset(members)
        if any(not 0 <= pid < model.n for pid in self._members):
            raise ValueError("selector members must be valid process ids")

    def select(self, process: ProcessId, phase: Phase) -> FrozenSet[ProcessId]:
        return self._members

    @property
    def is_static(self) -> bool:
        return True

    @property
    def is_singleton(self) -> bool:
        return len(self._members) == 1
