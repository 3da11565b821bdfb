"""Classification: in-bounds cells are quiet, over-bound cells scream.

The fuzzer's signal-to-noise hinges on two facts this suite pins:

* **in-bounds** candidates (models the Theorem 1 bounds admit) never
  classify as findings under the eligibility gates — safety holds by the
  paper's agreement proof, and liveness stalls are only counted when the
  schedule guarantees eventual good communication;
* **over-bound** candidates (``3b ≥ n`` for the one-third rule) execute on
  clamped boundary parameters under ``over_bound="allow"`` and produce
  genuine agreement violations for an equivocating adversary.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.fuzz import (
    BOUNDARY_CLASSES,
    FuzzCandidate,
    FuzzSpace,
    boundary_parameters,
    candidate_seed,
    classify_candidate,
    generate,
)
from repro.core.types import FaultModel
from repro.scenarios.spec import ScenarioSpec


def over_bound_otr() -> FuzzCandidate:
    """One-third rule at (4, 2, 0): 3b = 6 ≥ n = 4, far over the bound."""
    return FuzzCandidate(
        algorithm="one-third-rule",
        n=4,
        b=2,
        f=0,
        engine="lockstep",
        scenario=ScenarioSpec(
            name="fuzz", byzantine=("equivocator", "equivocator")
        ),
        max_phases=12,
    )


def test_in_bounds_candidates_produce_no_findings():
    """A seeded sample of the default space: zero findings in bounds."""
    space = FuzzSpace()
    for seed in range(25):
        candidate = generate(space, Random(seed))
        verdict = classify_candidate(
            candidate, candidate_seed(0, candidate), over_bound="never"
        )
        assert not verdict.is_finding, (
            f"in-bounds candidate {candidate.key()} classified as "
            f"{verdict.kind}: {verdict.violated}"
        )


def test_over_bound_equivocator_violates_agreement():
    candidate = over_bound_otr()
    seed = candidate_seed(7, candidate)
    # Refused without the escape hatch: the model is outside Theorem 1.
    skipped = classify_candidate(candidate, seed, over_bound="never")
    assert not skipped.is_finding
    assert skipped.status in ("inadmissible", "skipped")
    found = classify_candidate(candidate, seed, over_bound="allow")
    assert found.is_finding
    assert found.kind == "safety"
    assert "agreement" in found.violated
    assert found.row["over_bound"] is True


def test_over_bound_only_skips_in_bounds_cells():
    candidate = FuzzCandidate(
        algorithm="pbft",
        n=4,
        b=1,
        f=0,
        engine="lockstep",
        scenario=ScenarioSpec(name="fuzz", byzantine=("silent",)),
        max_phases=12,
    )
    verdict = classify_candidate(
        candidate, candidate_seed(0, candidate), over_bound="only"
    )
    assert verdict.status == "skipped"
    assert not verdict.is_finding


def test_classification_is_deterministic():
    candidate = over_bound_otr()
    seed = candidate_seed(7, candidate)
    rows = [
        classify_candidate(candidate, seed, over_bound="allow").row
        for _ in range(3)
    ]
    assert rows[0] == rows[1] == rows[2]


def test_candidate_seed_is_content_derived():
    candidate = over_bound_otr()
    assert candidate_seed(7, candidate) == candidate_seed(7, candidate)
    assert candidate_seed(7, candidate) != candidate_seed(8, candidate)
    other = FuzzCandidate(
        algorithm="pbft",
        n=4,
        b=1,
        f=0,
        engine="lockstep",
        scenario=ScenarioSpec(name="fuzz"),
        max_phases=12,
    )
    assert candidate_seed(7, candidate) != candidate_seed(7, other)


def test_boundary_parameters_clamp_to_model():
    for name in sorted(BOUNDARY_CLASSES):
        model = FaultModel(4, 2, 0)
        parameters, _config = boundary_parameters(name, model)
        assert 1 <= parameters.threshold <= model.n
        assert parameters.model == model
    with pytest.raises(ValueError):
        boundary_parameters("ben-or", FaultModel(4, 2, 0))


# ------------------------------------- termination over the correct set


def doomed_straggler() -> FuzzCandidate:
    """``fuzz run --seed 100 --budget 1500``, candidate 1362 (PR 11's
    "classifier false positive"): 5 of 6 decide in round 4, the sixth is
    scripted to crash in round 5 — a round the run never reaches."""
    return FuzzCandidate.from_mapping(
        {
            "algorithm": "class-1", "n": 6, "b": 0, "f": 1,
            "engine": "timed", "max_phases": 18,
            "scenario": {
                "name": "fuzz", "crashes": -1, "crash_round": 5,
                "clean": False,
                "timing": {
                    "kind": "fixed", "low": 0.85, "high": 0.85, "gst": 10.0,
                    "delta": 2.0, "pre_gst_delay_prob": 0.25,
                    "chaos_factor": 50.0, "round_duration": 2.5,
                },
            },
        }
    )


def judge_termination_over_context_correct(monkeypatch):
    """Re-install the pre-fix reference set: ``context.correct``, which
    still holds a process whose crash round the run never executed."""
    from repro.analysis.invariants import evaluate_properties
    from repro.engine.outcome import Outcome

    def legacy_report(self):
        return evaluate_properties(
            decided_values=self.decided_value_by_process,
            initial_values=self.initial_values,
            byzantine=self.context.byzantine,
            correct=self.context.correct,
        )

    monkeypatch.setattr(Outcome, "invariant_report", legacy_report)


def test_termination_ignores_a_process_doomed_to_crash_later(monkeypatch):
    """Termination is judged over the never-crashing honest set — the set
    the kernel's early stop waits for — not over ``context.correct``, which
    still holds a process whose crash round the run never executed."""
    candidate = doomed_straggler()
    assert candidate.key().startswith("class-1|n6b0f1|timed|crash!:f@5|fixed[0.85]")
    seed = 8400938276208267153
    assert candidate_seed(100, candidate) == seed
    verdict = classify_candidate(candidate, seed, over_bound="never")
    assert (verdict.row["decided"], verdict.row["rounds"]) == (5, 4)
    assert verdict.row["termination"] is True
    assert not verdict.is_finding

    # The pre-fix reference set reproduces the false positive.
    judge_termination_over_context_correct(monkeypatch)
    legacy = classify_candidate(candidate, seed, over_bound="never")
    assert legacy.row["termination"] is False and legacy.kind == "liveness"


def test_builtin_presets_do_not_move_with_the_termination_set(monkeypatch):
    """Every built-in preset (the gauntlet included) crashes in round 1, so
    both reference sets agree there: the fix moves no result byte."""
    from repro.campaigns import BUILTIN_CAMPAIGNS, run_campaign
    from repro.campaigns.results import row_to_json

    def digest():
        return {
            name: [row_to_json(row) for row in run_campaign(spec, workers=1)]
            for name, spec in BUILTIN_CAMPAIGNS.items()
        }

    fixed = digest()
    assert any('"termination":true' in line for line in fixed["gauntlet"])
    judge_termination_over_context_correct(monkeypatch)
    assert digest() == fixed
