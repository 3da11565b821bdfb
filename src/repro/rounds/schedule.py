"""Good/bad period schedules (paper Section 2.1).

The system model alternates between *good periods* (synchronous: ``Pgood``
holds, and ``Pcons`` holds in the rounds that need it) and *bad periods*
(asynchronous: the adversary controls delivery).  A schedule is simply a
predicate over global round numbers; several constructions are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Tuple

from repro.core.types import Round


@dataclass(frozen=True)
class GoodBadSchedule:
    """Decides whether each round falls in a good or a bad period."""

    _is_good: Callable[[Round], bool]
    description: str = "custom"

    def is_good(self, round_number: Round) -> bool:
        """True iff ``round_number`` lies in a good period."""
        return bool(self._is_good(round_number))

    # ---------------------------------------------------------------- ctors

    @classmethod
    def always_good(cls) -> "GoodBadSchedule":
        """A permanently synchronous system."""
        return cls(lambda r: True, "always-good")

    @classmethod
    def good_after(cls, first_good_round: Round) -> "GoodBadSchedule":
        """Bad prefix then permanently good — a GST-style schedule.

        Rounds ``< first_good_round`` are bad; all later rounds are good.
        """
        return cls(
            lambda r: r >= first_good_round, f"good-after-{first_good_round}"
        )

    @classmethod
    def windows(cls, good_windows: Iterable[Tuple[Round, Round]]) -> "GoodBadSchedule":
        """Good exactly inside the given inclusive ``(start, end)`` windows."""
        frozen: Sequence[Tuple[Round, Round]] = tuple(good_windows)
        for start, end in frozen:
            if start > end:
                raise ValueError(f"bad window ({start}, {end})")

        def is_good(r: Round) -> bool:
            return any(start <= r <= end for start, end in frozen)

        return cls(is_good, f"windows-{list(frozen)}")

    @classmethod
    def alternating(cls, good_len: int, bad_len: int) -> "GoodBadSchedule":
        """Repeating pattern of ``good_len`` good then ``bad_len`` bad rounds."""
        if good_len <= 0 or bad_len < 0:
            raise ValueError("good_len must be positive, bad_len non-negative")
        period = good_len + bad_len

        def is_good(r: Round) -> bool:
            return (r - 1) % period < good_len

        return cls(is_good, f"alternating-{good_len}g{bad_len}b")

    @classmethod
    def never_good(cls) -> "GoodBadSchedule":
        """A permanently asynchronous system (liveness cannot be guaranteed)."""
        return cls(lambda r: False, "never-good")
