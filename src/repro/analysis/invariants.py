"""Consensus invariant checkers (the problem definition of Section 2.3).

Each checker takes a finished run (an outcome-like object exposing the
decisions, initial values and fault sets) and raises
:class:`InvariantViolation` with a diagnostic message when the property is
violated.  Boolean wrappers are provided for property-based tests.

Properties checked:

* **Agreement** — no two honest processes decide differently;
* **Validity** — if all processes are honest, decided values are initial
  values of some process;
* **Unanimity** — if all honest processes propose the same ``v`` and an
  honest process decides, it decides ``v``;
* **Termination** — all correct processes eventually decide (checked against
  the executed horizon: the run must have ended with all correct decided);
* **Integrity** — each process decides at most once (guaranteed by
  construction here, but re-checked from the trace for defense in depth).
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from repro.core.types import Decision, ProcessId, Value


class InvariantViolation(AssertionError):
    """A consensus property was violated in an observed execution."""


def check_agreement(decisions: Mapping[ProcessId, Decision]) -> None:
    """No two honest processes decide differently."""
    values = {}
    for pid, decision in decisions.items():
        values.setdefault(decision.value, pid)
    if len(values) > 1:
        detail = ", ".join(
            f"process {pid} decided {value!r}" for value, pid in values.items()
        )
        raise InvariantViolation(f"agreement violated: {detail}")


def check_validity(
    decisions: Mapping[ProcessId, Decision],
    initial_values: Mapping[ProcessId, Value],
    byzantine: AbstractSet[ProcessId],
) -> None:
    """With no Byzantine processes, decisions must be someone's proposal."""
    if byzantine:
        return
    proposals = set(initial_values.values())
    for pid, decision in decisions.items():
        if decision.value not in proposals:
            raise InvariantViolation(
                f"validity violated: process {pid} decided {decision.value!r}, "
                f"not among proposals {proposals!r}"
            )


def check_unanimity(
    decisions: Mapping[ProcessId, Decision],
    initial_values: Mapping[ProcessId, Value],
    byzantine: AbstractSet[ProcessId],
) -> None:
    """If all honest proposals equal ``v``, every honest decision is ``v``."""
    honest_proposals = {
        value for pid, value in initial_values.items() if pid not in byzantine
    }
    if len(honest_proposals) != 1:
        return
    (common,) = honest_proposals
    for pid, decision in decisions.items():
        if pid in byzantine:
            continue
        if decision.value != common:
            raise InvariantViolation(
                f"unanimity violated: all honest proposed {common!r} but "
                f"process {pid} decided {decision.value!r}"
            )


def check_termination(
    decisions: Mapping[ProcessId, Decision],
    correct: AbstractSet[ProcessId],
) -> None:
    """Every correct process must have decided by the end of the run."""
    missing = sorted(set(correct) - set(decisions))
    if missing:
        raise InvariantViolation(
            f"termination violated: correct processes {missing} did not decide"
        )


def check_integrity(decision_events: list[Decision]) -> None:
    """Each process appears at most once in the stream of decision events."""
    seen: set[ProcessId] = set()
    for event in decision_events:
        if event.process in seen:
            raise InvariantViolation(
                f"integrity violated: process {event.process} decided twice"
            )
        seen.add(event.process)


def evaluate_properties(
    *,
    decided_values: Mapping[ProcessId, Value],
    initial_values: Mapping[ProcessId, Value],
    byzantine: AbstractSet[ProcessId],
    correct: AbstractSet[ProcessId],
) -> Mapping[str, bool]:
    """Boolean summary of the Section 2.3 properties for one finished run.

    Engine-agnostic: a lockstep and a timed run both reduce to these four
    mappings, so campaign rows carry identical property columns regardless
    of the engine that produced them.
    """
    values = set(decided_values.values())
    if byzantine:
        validity = True
    else:
        validity = values <= set(initial_values.values())
    honest_proposals = {
        value for pid, value in initial_values.items() if pid not in byzantine
    }
    if len(honest_proposals) == 1:
        (common,) = honest_proposals
        unanimity = all(
            value == common
            for pid, value in decided_values.items()
            if pid not in byzantine
        )
    else:
        unanimity = True
    return {
        "agreement": len(values) <= 1,
        "validity": validity,
        "unanimity": unanimity,
        "termination": set(correct) <= set(decided_values),
    }


def holds(checker, *args, **kwargs) -> bool:
    """Boolean wrapper: True iff ``checker(*args)`` does not raise."""
    try:
        checker(*args, **kwargs)
    except InvariantViolation:
        return False
    return True
