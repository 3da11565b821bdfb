"""Deterministic choice and counting helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.det import (
    deterministic_choice,
    majority_value,
    most_often_smallest,
    value_counts,
)


def test_deterministic_choice_single():
    assert deterministic_choice(["x"]) == "x"


def test_deterministic_choice_is_order_independent():
    assert deterministic_choice(["b", "a", "c"]) == deterministic_choice(
        ["c", "a", "b"]
    )


def test_deterministic_choice_mixed_types():
    # Must not raise on incomparable types.
    result = deterministic_choice([3, "a", (1, 2)])
    assert result in {3, "a", (1, 2)}


def test_deterministic_choice_empty_raises():
    with pytest.raises(ValueError):
        deterministic_choice([])


@given(st.lists(st.one_of(st.integers(), st.text()), min_size=1))
def test_deterministic_choice_stable_under_permutation(values):
    assert deterministic_choice(values) == deterministic_choice(
        list(reversed(values))
    )


@given(st.lists(st.one_of(st.integers(), st.text()), min_size=1))
def test_deterministic_choice_returns_member(values):
    assert deterministic_choice(values) in values


def test_majority_value_present():
    assert majority_value(["a", "a", "b"]) == "a"


def test_majority_value_absent_on_tie():
    assert majority_value(["a", "a", "b", "b"]) is None


def test_majority_value_empty():
    assert majority_value([]) is None


def test_value_counts_multiset():
    counts = value_counts(["a", "b", "a"])
    assert counts["a"] == 2 and counts["b"] == 1


def test_most_often_smallest_tie_break():
    # 1 and 2 both occur twice → deterministic tie-break picks one stably.
    first = most_often_smallest([2, 1, 2, 1])
    second = most_often_smallest([1, 2, 1, 2])
    assert first == second


def test_most_often_smallest_prefers_frequency():
    assert most_often_smallest(["z", "z", "a"]) == "z"


def test_most_often_smallest_empty_raises():
    with pytest.raises(ValueError):
        most_often_smallest([])
