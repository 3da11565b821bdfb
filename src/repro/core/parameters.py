"""Parameter bundles for the generic algorithm (Section 3.2).

A :class:`ConsensusParameters` object collects the four parameters of
Algorithm 1 — the decision threshold ``TD``, the ``FLAG``, the ``FLV``
function and the ``Selector`` — together with the fault model, and validates
the constraints the correctness theorems impose:

* Agreement needs ``FLAG = φ ∧ TD > b`` or ``FLAG = * ∧ TD > (n + b)/2``
  (Theorem 1, iii-a / iii-b);
* Termination needs ``TD ≤ n − b − f`` (Theorem 1, iv).

:class:`GenericConsensusConfig` carries the optional switches: the Section
3.1 optimizations, the line-26 ablation, and the randomized-coin adaptation
of Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.flv import FLVFunction
from repro.core.selector import Selector
from repro.core.types import FaultModel, Flag, Phase, Value


class ParameterError(ValueError):
    """Raised when a parameter combination violates the paper's constraints."""


@dataclass(frozen=True)
class ConsensusParameters:
    """The four parameters of Algorithm 1, plus the fault model."""

    model: FaultModel
    threshold: int
    flag: Flag
    flv: FLVFunction
    selector: Selector

    def __post_init__(self) -> None:
        n, b, f = self.model.n, self.model.b, self.model.f
        if self.threshold <= 0:
            raise ParameterError(f"TD must be positive, got {self.threshold}")
        if self.threshold > n - b - f:
            raise ParameterError(
                f"termination requires TD ≤ n − b − f: "
                f"TD={self.threshold}, n−b−f={n - b - f}"
            )
        if self.flag is Flag.ANY:
            if 2 * self.threshold <= n + b:
                raise ParameterError(
                    f"agreement with FLAG=* requires TD > (n+b)/2: "
                    f"TD={self.threshold}, (n+b)/2={(n + b) / 2}"
                )
        else:
            if self.threshold <= b:
                raise ParameterError(
                    f"agreement with FLAG=φ requires TD > b: "
                    f"TD={self.threshold}, b={b}"
                )
        if self.flv.threshold != self.threshold:
            raise ParameterError(
                f"FLV was built with TD={self.flv.threshold}, "
                f"parameters carry TD={self.threshold}"
            )
        if self.flv.model != self.model:
            raise ParameterError("FLV fault model differs from parameter model")
        if self.selector.model != self.model:
            raise ParameterError("Selector fault model differs from parameter model")

    @classmethod
    def unchecked(
        cls,
        model: "FaultModel",
        threshold: int,
        flag: Flag,
        flv: FLVFunction,
        selector: Selector,
    ) -> "ConsensusParameters":
        """Construct a bundle **without** the Theorem-1 validation.

        The boundary-hunting instruments (the scenario fuzzer) need to
        execute parameter points the correctness theorems reject — that is
        exactly where counterexamples live.  Structural consistency is
        still enforced (the FLV/selector must be built for this model and
        threshold, and ``TD`` must be positive and reachable), but the
        agreement and termination bounds are deliberately not: a bundle
        built here may lose safety or liveness by design.  Never use this
        for anything presented as a correct instantiation.
        """
        if threshold <= 0:
            raise ParameterError(f"TD must be positive, got {threshold}")
        if threshold > model.n:
            raise ParameterError(
                f"TD={threshold} can never be reached with n={model.n}"
            )
        if flv.threshold != threshold:
            raise ParameterError(
                f"FLV was built with TD={flv.threshold}, "
                f"parameters carry TD={threshold}"
            )
        if flv.model != model:
            raise ParameterError("FLV fault model differs from parameter model")
        if selector.model != model:
            raise ParameterError("Selector fault model differs from parameter model")
        self = object.__new__(cls)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "flag", flag)
        object.__setattr__(self, "flv", flv)
        object.__setattr__(self, "selector", selector)
        return self

    @property
    def rounds_per_phase(self) -> int:
        """2 when ``FLAG = *`` (no validation round), 3 when ``FLAG = φ``."""
        return 3 if self.flag.needs_validation_round else 2

    @property
    def state_footprint(self) -> tuple[str, ...]:
        """Which of (vote, ts, history) the instantiation actually uses."""
        req = self.flv.requirements
        names = ["vote"]
        if req.uses_ts:
            names.append("ts")
        if req.uses_history:
            names.append("history")
        return tuple(names)

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"TD={self.threshold}, FLAG={self.flag}, flv={self.flv.name}, "
            f"selector={self.selector.name}, {self.model.describe()}"
        )


#: A coin is a callable ``phase → value`` used by randomized algorithms when
#: FLV returns ``?`` (Section 6 replaces line 11 of Algorithm 1 with it).
Coin = Callable[[Phase], Value]


@dataclass(frozen=True)
class GenericConsensusConfig:
    """Optional behaviour switches of the generic algorithm.

    * ``skip_first_selection`` — Section 3.1 optimization: suppress the
      selection round of phase 1, pre-initializing ``select_p = init_p`` and
      a common validator set.
    * ``static_selector_optimization`` — when the Selector is static, do not
      exchange the set and suppress lines 15/21 (Section 3.1).  ``None``
      means "auto": enabled iff ``selector.is_static``.
    * ``record_validation_in_history`` — ablation for the line-26 subtlety
      (validation does not log to the history, so line 26's revert may find
      no pair; see :meth:`~repro.core.state.ConsensusState.revert_vote`):
      also log validated pairs into the history.
    * ``coin`` — randomized adaptation: when set, line 11's deterministic
      choice is replaced by this coin (Section 6).
    * ``max_history_size`` — optional bound on the history log (footnote 5
    	 notes bounding it costs an extra round in general; the simulation
      simply truncates oldest entries, which is only safe for experiments).
    """

    skip_first_selection: bool = False
    static_selector_optimization: Optional[bool] = None
    record_validation_in_history: bool = False
    coin: Optional[Coin] = None
    max_history_size: Optional[int] = None

    def uses_static_selector(self, selector: Selector) -> bool:
        """Resolve the ``static_selector_optimization`` tri-state."""
        if self.static_selector_optimization is None:
            return selector.is_static
        return self.static_selector_optimization
