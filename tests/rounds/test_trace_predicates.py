"""Trace-level predicate recording: the engine observes what oracles do."""

import random

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel, RoundKind
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.rounds.policies import random_drop_behavior, silent_behavior
from repro.rounds.schedule import GoodBadSchedule


def run_with(good_bad=None, max_phases=4, model=None):
    model = model or FaultModel(4, 1, 0)
    params = build_class_parameters(AlgorithmClass.CLASS_3, model)
    return run_instance(
        build_instance(
            params,
            {pid: f"v{pid % 2}" for pid in range(3)},
            byzantine={3: "equivocator"},
        ),
        LockstepScheduler(good_bad),
        max_phases=max_phases,
    )


def test_reliable_policy_records_pcons_on_selection_rounds():
    outcome = run_with()
    for record in outcome.trace.records:
        assert record.pgood
        if record.info.kind is RoundKind.SELECTION:
            assert record.pcons


def test_good_bad_schedule_reflected_in_trace():
    schedule = GoodBadSchedule.good_after(4)
    outcome = run_with(
        (schedule, random_drop_behavior(random.Random(0))), max_phases=6
    )
    for record in outcome.trace.records:
        if record.info.number >= 4:
            assert record.pgood, record.info
        if (
            record.info.number >= 4
            and record.info.kind is RoundKind.SELECTION
        ):
            assert record.pcons, record.info


def test_silent_policy_records_no_predicates():
    outcome = run_with(
        (GoodBadSchedule.never_good(), silent_behavior()), max_phases=2
    )
    for record in outcome.trace.records:
        assert not record.pgood
        assert not record.prel
        assert record.delivered_count <= record.sent_count


def test_good_phase_detection_via_trace():
    """The paper's 'good phase': Pcons in the selection round, Pgood after.

    The trace makes good phases queryable — the first good phase is exactly
    where the run decides."""
    schedule = GoodBadSchedule.good_after(7)
    outcome = run_with(
        (schedule, random_drop_behavior(random.Random(1))), max_phases=8
    )
    assert outcome.all_correct_decided
    records = outcome.trace.records
    by_phase = {}
    for record in records:
        by_phase.setdefault(record.info.phase, []).append(record)
    good_phases = [
        phase
        for phase, phase_records in by_phase.items()
        if len(phase_records) == 3
        and phase_records[0].pcons
        and all(r.pgood for r in phase_records)
    ]
    assert good_phases, "a good phase must exist after round 7"
    deciding_phase = min(d.phase for d in outcome.decisions.values())
    assert deciding_phase <= min(good_phases) or deciding_phase in good_phases


def test_prel_recorded_under_reliable_delivery():
    outcome = run_with()
    # Full delivery trivially satisfies Prel in all-to-all rounds.
    for record in outcome.trace.records:
        if record.info.kind is not RoundKind.VALIDATION:
            assert record.prel
