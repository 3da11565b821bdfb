"""Experiment X4 — ablations of the design choices behind the config switches
of :class:`~repro.core.parameters.GenericConsensusConfig`.

* **skip-first-selection** (Section 3.1 optimization): saves one round when
  inputs already agree, harmless otherwise;
* **static-selector optimization** (Section 3.1): suppresses the selector
  exchange (lines 15/21) — identical decisions, and required message fields
  stay empty;
* **line-26 history variant** (``record_validation_in_history``; see
  ``ConsensusState.revert_vote``): recording validated pairs in
  the history does not change outcomes in any scenario the scripted
  adversaries produce, but removes the "no matching pair" revert ambiguity;
* **bounded history** (footnote 5): truncation caps state while synchrony
  holds.
"""

import random

import pytest

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.parameters import GenericConsensusConfig
from repro.core.types import FaultModel
from repro.engine import LockstepScheduler, build_instance, run_instance
from repro.rounds.policies import random_drop_behavior
from repro.rounds.schedule import GoodBadSchedule


def lossy_until(good_from, seed):
    """Bad rounds drop each honest-bound message with probability ½ until
    round ``good_from``; a fresh loss stream per run."""
    return LockstepScheduler(
        (
            GoodBadSchedule.good_after(good_from),
            random_drop_behavior(random.Random(seed)),
        )
    )


@pytest.fixture
def pbft_params():
    return build_class_parameters(AlgorithmClass.CLASS_3, FaultModel(4, 1, 0))


def test_skip_first_selection_saves_a_round(benchmark, pbft_params, report):
    values = {pid: "same" for pid in range(4)}
    plain = run_instance(build_instance(pbft_params, values), LockstepScheduler())

    def run_skipped():
        return run_instance(
            build_instance(
                pbft_params,
                values,
                config=GenericConsensusConfig(skip_first_selection=True),
            ),
            LockstepScheduler(),
        )

    skipped = benchmark(run_skipped)
    report(
        f"rounds to decide: plain {plain.rounds_to_last_decision}, "
        f"skip-first-selection {skipped.rounds_to_last_decision}"
    )
    assert skipped.agreement_holds and skipped.all_correct_decided
    assert (
        skipped.rounds_to_last_decision
        == plain.rounds_to_last_decision - 1
    )


def test_static_selector_optimization_is_transparent(pbft_params):
    values = {pid: f"v{pid % 2}" for pid in range(3)}
    with_opt = run_instance(
        build_instance(
            pbft_params,
            values,
            config=GenericConsensusConfig(static_selector_optimization=True),
            byzantine={3: "equivocator"},
        ),
        LockstepScheduler(),
    )
    without_opt = run_instance(
        build_instance(
            pbft_params,
            values,
            config=GenericConsensusConfig(static_selector_optimization=False),
            byzantine={3: "equivocator"},
        ),
        LockstepScheduler(),
    )
    assert with_opt.decided_values == without_opt.decided_values
    assert (
        with_opt.rounds_to_last_decision == without_opt.rounds_to_last_decision
    )


def test_line26_history_variant_matches_paper_mode(pbft_params):
    """The ablation switch never changes decisions under our adversaries."""
    for strategy in ("equivocator", "high-ts-liar", "fake-history-liar"):
        for seed in range(3):
            values = {pid: f"v{pid % 2}" for pid in range(3)}
            paper = run_instance(
                build_instance(pbft_params, values, byzantine={3: strategy}),
                lossy_until(7, seed),
                max_phases=8,
            )
            variant = run_instance(
                build_instance(
                    pbft_params,
                    values,
                    config=GenericConsensusConfig(record_validation_in_history=True),
                    byzantine={3: strategy},
                ),
                lossy_until(7, seed),
                max_phases=8,
            )
            assert paper.agreement_holds and variant.agreement_holds
            assert paper.decided_values == variant.decided_values, (
                strategy,
                seed,
            )


def test_bounded_history_caps_state(pbft_params, report):
    values = {pid: f"v{pid % 2}" for pid in range(3)}
    unbounded = run_instance(
        build_instance(pbft_params, values, byzantine={3: "equivocator"}),
        lossy_until(13, 2),
        max_phases=12,
    )
    bounded = run_instance(
        build_instance(
            pbft_params,
            values,
            config=GenericConsensusConfig(max_history_size=2),
            byzantine={3: "equivocator"},
        ),
        lossy_until(13, 2),
        max_phases=12,
    )
    big = max(len(p.state.history) for p in unbounded.honest_processes.values())
    small = max(len(p.state.history) for p in bounded.honest_processes.values())
    report(f"max history entries: unbounded {big}, bounded {small}")
    assert small <= 2
    assert bounded.agreement_holds and bounded.all_correct_decided
