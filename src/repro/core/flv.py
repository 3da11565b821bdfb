"""The ``FLV`` ("Find the Locked Value") abstraction (Section 3.2).

An FLV function examines the vector of selection-round messages
``⟨vote, ts, history, −⟩`` and returns:

* a concrete value ``v``   — only ``v`` may safely be selected,
* :data:`~repro.utils.sentinels.ANY_VALUE` (the paper's ``?``) — any received
  vote may be selected,
* :data:`~repro.utils.sentinels.NULL_VALUE` — not enough information.

Required abstract properties (all quoted from the paper):

* **FLV-validity** — a concrete result must be one of the received votes;
* **FLV-agreement** — if value ``v`` is locked in round ``r``, only ``v`` or
  ``null`` can be returned;
* **FLV-liveness** — if messages from *all* correct processes are received,
  ``null`` cannot be returned.  Randomized algorithms need the stronger
  variant: any vector with at least ``n − b − f`` messages must yield a
  non-``null`` result (Section 6).

Concrete subclasses implement :meth:`FLVFunction.evaluate` over a list of
well-formed :class:`~repro.core.types.SelectionMessage` objects (the engine
drops malformed Byzantine payloads before calling FLV, mirroring defensive
parsing in a real implementation).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence, Union

from repro.core.types import FaultModel, SelectionMessage, Value
from repro.utils.sentinels import Sentinel

#: The result type of an FLV evaluation.
FLVResult = Union[Value, Sentinel]


@dataclass(frozen=True)
class FLVRequirements:
    """The prerequisites a given FLV instantiation imposes.

    * ``min_td_strict_bound(model)`` — the strict lower bound on ``TD``
      required for FLV-liveness (e.g. ``(n+3b+f)/2`` for class 1).
    * ``uses_ts`` / ``uses_history`` — which state variables the function
      reads; reproduces the "Process state" column of Table 1.
    * ``supports_prel_liveness`` — whether the function satisfies the stronger
      liveness variant needed by randomized algorithms (true for classes 1
      and 2, false for class 3; Section 6).
    * ``needs_strong_selector_validity`` — class 3 needs
      Selector-strongValidity (``|S| > 3b + 2f``) for liveness.
    """

    uses_ts: bool
    uses_history: bool
    supports_prel_liveness: bool
    needs_strong_selector_validity: bool = False


class FLVFunction(abc.ABC):
    """Abstract base class of all FLV instantiations."""

    #: Human-readable name used in traces and reports.
    name: str = "flv"

    def __init__(self, model: FaultModel, threshold: int) -> None:
        """``model`` is the (n, b, f) envelope; ``threshold`` is ``TD``."""
        self._model = model
        self._threshold = threshold

    @property
    def model(self) -> FaultModel:
        """The fault model this instance was built for."""
        return self._model

    @property
    def threshold(self) -> int:
        """The decision threshold ``TD`` the function is parameterized with."""
        return self._threshold

    @property
    @abc.abstractmethod
    def requirements(self) -> FLVRequirements:
        """Static requirements/uses of this instantiation."""

    @abc.abstractmethod
    def evaluate(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        """Run the FLV function on the received (well-formed) messages.

        ``phase`` is the current phase φ; most instantiations ignore it, but
        Ben-Or's FLV (Algorithm 9) checks for timestamps equal to ``φ − 1``.
        """

    def __call__(
        self, messages: Sequence[SelectionMessage], phase: int = 0
    ) -> FLVResult:
        return self.evaluate(messages, phase)

    # Convenience accessors used by every concrete implementation ---------

    @property
    def _n(self) -> int:
        return self._model.n

    @property
    def _b(self) -> int:
        return self._model.b

    @property
    def _slack(self) -> int:
        """The recurring quantity ``n − TD + b``."""
        return self._n - self._threshold + self._b

    def _votes(self, messages: Sequence[SelectionMessage]) -> List[Value]:
        return [message.vote for message in messages]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self._n}, b={self._b}, "
            f"f={self._model.f}, TD={self._threshold})"
        )
