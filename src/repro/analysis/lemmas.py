"""Lemma-level checkers: the paper's proof obligations, verified on traces.

Theorem 1's proof rests on four lemmas about honest-process state during
execution.  Given a run recorded with state snapshots (``run_instance``
under ``observe="full"``, which records them by default), these checkers
verify the observable consequences of each lemma on every phase of the
actual execution:

* **Lemma 4 consequence** — in every phase, all honest processes that
  validated in that phase (``ts == φ`` at the end of its validation round)
  hold the *same* vote;
* **timestamp monotonicity** — an honest ``ts`` never decreases;
* **vote/timestamp consistency** — when an honest process has ``ts = φ``,
  some honest process selected its vote in phase φ (the Lemma 2
  consequence, checkable when histories are recorded);
* **decision support** — every decision in phase φ under ``FLAG = φ`` is
  matched by at least ``TD − b`` honest processes with ``ts = φ``.

These run as assertions in the integration/property suites, giving the
reproduction a proof-shaped safety net beyond end-to-end agreement.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.analysis.invariants import InvariantViolation
from repro.core.types import RoundKind
from repro.engine.outcome import Outcome


def _validation_snapshots(outcome: Outcome):
    """Yield (phase, {pid: (vote, ts, history)}) at each validation round."""
    for record in outcome.trace.records:
        if record.info.kind is RoundKind.VALIDATION and record.snapshots:
            yield record.info.phase, record.snapshots


def check_lemma4_unique_validated_value(outcome: Outcome) -> None:
    """No two honest processes validate different values in the same phase."""
    for phase, snapshots in _validation_snapshots(outcome):
        validated: Dict[object, List[int]] = defaultdict(list)
        for pid, snapshot in snapshots.items():
            if snapshot is None:
                continue
            vote, ts, _history = snapshot
            if ts == phase:
                validated[vote].append(pid)
        if len(validated) > 1:
            raise InvariantViolation(
                f"Lemma 4 violated in phase {phase}: "
                f"validated values {dict(validated)!r}"
            )


def check_timestamp_monotonicity(outcome: Outcome) -> None:
    """Honest timestamps never decrease across the run."""
    last_ts: Dict[int, int] = {}
    for record in outcome.trace.records:
        for pid, snapshot in record.snapshots.items():
            if snapshot is None:
                continue
            _vote, ts, _history = snapshot
            if ts < last_ts.get(pid, 0):
                raise InvariantViolation(
                    f"timestamp of process {pid} decreased "
                    f"({last_ts[pid]} → {ts}) at round {record.info.number}"
                )
            last_ts[pid] = ts


def check_validated_pair_was_selected(outcome: Outcome) -> None:
    """Lemma 2 consequence: a pair (v, φ) validated by an honest process was
    selected by some honest process in phase φ (its history contains it).

    Only meaningful for instantiations that record histories (class 3);
    silently passes otherwise.
    """
    if "history" not in outcome.parameters.state_footprint:
        return
    for phase, snapshots in _validation_snapshots(outcome):
        all_histories = set()
        for snapshot in snapshots.values():
            if snapshot is None:
                continue
            all_histories |= set(snapshot[2])
        for pid, snapshot in snapshots.items():
            if snapshot is None:
                continue
            vote, ts, _history = snapshot
            if ts == phase and (vote, phase) not in all_histories:
                raise InvariantViolation(
                    f"process {pid} validated ({vote!r}, {phase}) but no "
                    "honest history contains the pair"
                )


def check_decision_support(outcome: Outcome) -> None:
    """Each FLAG=φ decision has ≥ TD − b honest ts=φ supporters."""
    from repro.core.types import Flag

    if outcome.parameters.flag is not Flag.CURRENT_PHASE:
        return
    threshold = outcome.parameters.threshold - outcome.parameters.model.b
    # Snapshot at the validation round of the deciding phase.
    by_phase = dict(_validation_snapshots(outcome))
    for pid, decision in outcome.decisions.items():
        snapshots = by_phase.get(decision.phase)
        if snapshots is None:
            continue
        supporters = sum(
            1
            for snapshot in snapshots.values()
            if snapshot is not None
            and snapshot[0] == decision.value
            and snapshot[1] == decision.phase
        )
        if supporters < threshold:
            raise InvariantViolation(
                f"decision of {pid} on {decision.value!r} in phase "
                f"{decision.phase} has only {supporters} honest supporters "
                f"(need ≥ {threshold})"
            )


ALL_LEMMA_CHECKS = (
    check_lemma4_unique_validated_value,
    check_timestamp_monotonicity,
    check_validated_pair_was_selected,
    check_decision_support,
)


def check_all_lemmas(outcome: Outcome) -> None:
    """Run every lemma-level checker on a snapshot-recorded outcome."""
    for check in ALL_LEMMA_CHECKS:
        check(outcome)
