"""Good/bad period schedules."""

import pytest

from repro.rounds.schedule import GoodBadSchedule


def test_always_good():
    schedule = GoodBadSchedule.always_good()
    assert all(schedule.is_good(r) for r in range(1, 50))


def test_never_good():
    schedule = GoodBadSchedule.never_good()
    assert not any(schedule.is_good(r) for r in range(1, 50))


def test_good_after():
    schedule = GoodBadSchedule.good_after(5)
    assert not schedule.is_good(4)
    assert schedule.is_good(5)
    assert schedule.is_good(100)


def test_windows():
    schedule = GoodBadSchedule.windows([(3, 5), (9, 9)])
    assert not schedule.is_good(2)
    assert schedule.is_good(3)
    assert schedule.is_good(5)
    assert not schedule.is_good(6)
    assert schedule.is_good(9)
    assert not schedule.is_good(10)


def test_windows_rejects_inverted():
    with pytest.raises(ValueError):
        GoodBadSchedule.windows([(5, 3)])


def test_alternating():
    schedule = GoodBadSchedule.alternating(good_len=2, bad_len=3)
    pattern = [schedule.is_good(r) for r in range(1, 11)]
    assert pattern == [True, True, False, False, False] * 2


def test_alternating_validation():
    with pytest.raises(ValueError):
        GoodBadSchedule.alternating(0, 1)
    with pytest.raises(ValueError):
        GoodBadSchedule.alternating(1, -1)


def test_description_present():
    assert "good-after-3" in GoodBadSchedule.good_after(3).description
