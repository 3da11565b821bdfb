"""The consensus properties of Section 2.3, evaluated on a finished run.

:func:`evaluate_properties` is the one implementation; every campaign row's
property columns and :meth:`~repro.engine.Outcome.invariant_report` come
from it:

* **Agreement** — no two honest processes decide differently;
* **Validity** — if all processes are honest, decided values are initial
  values of some process;
* **Unanimity** — if all honest processes propose the same ``v`` and an
  honest process decides, it decides ``v``;
* **Termination** — all correct processes eventually decide (checked against
  the executed horizon: the run must have ended with all correct decided).

Integrity — each process decides at most once — holds by construction: the
kernel records only a process's first decision.  :class:`InvariantViolation`
is what the lemma checkers of :mod:`repro.analysis.lemmas` raise.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from repro.core.types import ProcessId, Value


class InvariantViolation(AssertionError):
    """A consensus property was violated in an observed execution."""


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

