"""ConsensusState transitions (lines 2-4, 13-14, 23-26 of Algorithm 1)."""

from repro.core.state import ConsensusState


def test_initial_state():
    state = ConsensusState.initial("v")
    assert state.vote == "v"
    assert state.ts == 0
    assert state.history == {("v", 0)}
    assert not state.has_decided


def test_record_selection_appends_history():
    state = ConsensusState.initial("v")
    state.record_selection("w", 2)
    assert state.vote == "w"
    assert ("w", 2) in state.history
    assert state.ts == 0  # selection never touches ts


def test_record_validation_bumps_ts():
    state = ConsensusState.initial("v")
    state.record_selection("w", 1)
    state.record_validation("w", 1)
    assert state.vote == "w"
    assert state.ts == 1
    # Paper pseudocode: validation does NOT log to the history.
    assert ("w", 1) in state.history  # from the selection, not the validation


def test_record_validation_history_ablation():
    state = ConsensusState.initial("v")
    state.record_validation("w", 1, also_log_history=True)
    assert ("w", 1) in state.history


def test_validation_without_history_entry_paper_mode():
    state = ConsensusState.initial("v")
    state.record_validation("w", 1)  # w was never selected by this process
    assert ("w", 1) not in state.history


def test_revert_vote_restores_ts_value():
    state = ConsensusState.initial("v")
    state.record_selection("w", 1)
    state.record_validation("w", 1)
    state.record_selection("x", 2)  # selected but not validated in phase 2
    state.revert_vote()  # line 26
    assert state.vote == "w"
    assert state.ts == 1


def test_revert_vote_no_matching_pair_keeps_vote():
    state = ConsensusState.initial("v")
    # Validate a value this process never selected: no (w, 1) in history.
    state.record_validation("w", 1)
    state.record_selection("x", 2)
    state.revert_vote()
    # Ambiguity resolved by keeping the current vote (revert_vote docstring).
    assert state.vote == "x"


def test_revert_vote_at_ts_zero():
    state = ConsensusState.initial("v")
    state.record_selection("w", 1)
    state.revert_vote()
    assert state.vote == "v"  # (v, 0) is the unique ts=0 pair


def test_decision_is_stable():
    state = ConsensusState.initial("v")
    state.record_decision("w", 3)
    state.record_decision("x", 4)  # ignored: decisions are final
    assert state.decided == "w"
    assert state.decided_phase == 3


def test_snapshot_is_immutable_copy():
    state = ConsensusState.initial("v")
    vote, ts, history = state.snapshot()
    state.record_selection("w", 1)
    assert ("w", 1) not in history


def test_footprint():
    state = ConsensusState.initial("v")
    assert state.footprint(False, False) == ("vote",)
    assert state.footprint(True, False) == ("vote", "ts")
    assert state.footprint(True, True) == ("vote", "ts", "history")
