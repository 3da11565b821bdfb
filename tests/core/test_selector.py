"""Selector instantiations and their abstract properties (Section 4.2)."""

import pytest

from repro.core.selector import (
    AllProcessesSelector,
    FixedSelector,
    LeaderSelector,
    OmegaOracle,
    RotatingCoordinatorSelector,
    RotatingSubsetSelector,
)
from repro.core.types import FaultModel


class TestAllProcesses:
    def test_returns_pi_everywhere(self, pbft_model):
        selector = AllProcessesSelector(pbft_model)
        for pid in pbft_model.processes:
            for phase in (1, 2, 7):
                assert selector.select(pid, phase) == frozenset(range(4))

    def test_static_and_valid(self, pbft_model):
        selector = AllProcessesSelector(pbft_model)
        assert selector.is_static
        assert selector.satisfies_validity(selector.select(0, 1))
        assert selector.satisfies_strong_validity(selector.select(0, 1))


class TestRotatingSubset:
    def test_default_size_is_b_plus_1(self, mqb_model):
        selector = RotatingSubsetSelector(mqb_model)
        assert selector.size == 2
        assert len(selector.select(0, 1)) == 2

    def test_rotates_with_phase(self, mqb_model):
        selector = RotatingSubsetSelector(mqb_model)
        assert selector.select(0, 1) != selector.select(0, 2)

    def test_same_at_every_process(self, mqb_model):
        selector = RotatingSubsetSelector(mqb_model)
        for phase in range(1, 8):
            suggestions = {selector.select(pid, phase) for pid in mqb_model.processes}
            assert len(suggestions) == 1  # SL1 holds structurally

    def test_rejects_too_small(self, mqb_model):
        with pytest.raises(ValueError):
            RotatingSubsetSelector(mqb_model, size=1)  # b = 1 needs > 1

    def test_rejects_oversized(self, mqb_model):
        with pytest.raises(ValueError):
            RotatingSubsetSelector(mqb_model, size=6)

    def test_validity_property(self, mqb_model):
        selector = RotatingSubsetSelector(mqb_model, size=3)
        assert selector.satisfies_validity(selector.select(0, 4))


class TestRotatingCoordinator:
    def test_requires_benign(self, pbft_model):
        with pytest.raises(ValueError):
            RotatingCoordinatorSelector(pbft_model)

    def test_rotation(self, benign_model):
        selector = RotatingCoordinatorSelector(benign_model)
        assert selector.select(0, 1) == frozenset({0})
        assert selector.select(0, 2) == frozenset({1})
        assert selector.select(0, 4) == frozenset({0})  # wraps at n = 3

    def test_singleton_flag(self, benign_model):
        assert RotatingCoordinatorSelector(benign_model).is_singleton


class TestLeaderSelector:
    def test_requires_benign(self, pbft_model):
        with pytest.raises(ValueError):
            LeaderSelector(pbft_model, OmegaOracle(0))

    def test_stable_oracle(self, benign_model):
        selector = LeaderSelector(benign_model, OmegaOracle(2))
        assert selector.select(0, 1) == frozenset({2})
        assert selector.select(1, 9) == frozenset({2})

    def test_stabilizing_oracle_eventually_agrees(self, benign_model):
        selector = LeaderSelector(
            benign_model, lambda p, phase: 1 if phase >= 4 else p
        )
        # Before phase 4 the processes disagree (SL1 fails) ...
        for phase in (1, 3):
            suggestions = {
                selector.select(pid, phase) for pid in benign_model.processes
            }
            assert len(suggestions) == benign_model.n
        # ... and from it everyone sees the same leader.
        for pid in benign_model.processes:
            assert selector.select(pid, 4) == frozenset({1})
            assert selector.select(pid, 10) == frozenset({1})

    def test_out_of_range_oracle_rejected(self, benign_model):
        selector = LeaderSelector(benign_model, lambda p, phi: 99)
        with pytest.raises(ValueError):
            selector.select(0, 1)


    @pytest.mark.parametrize("leader", [-1, 3])
    def test_leader_just_outside_pi_rejected(self, benign_model, leader):
        selector = LeaderSelector(benign_model, lambda p, phi: leader)
        with pytest.raises(ValueError):
            selector.select(0, 1)

    def test_a_rotating_leader_is_the_rotating_coordinator(self, benign_model):
        # The Section 4.2 CT pattern written as a leader function of φ.
        leader = LeaderSelector(benign_model, lambda p, phase: (phase - 1) % 3)
        rotating = RotatingCoordinatorSelector(benign_model)
        for pid in benign_model.processes:
            for phase in range(1, 8):
                assert leader.select(pid, phase) == rotating.select(pid, phase)


def test_omega_is_constant():
    oracle = OmegaOracle(2)
    assert oracle(0, 1) == 2
    assert oracle(4, 99) == 2


class TestFixedSelector:
    def test_members(self, pbft_model):
        selector = FixedSelector(pbft_model, [0, 2, 3])
        assert selector.select(1, 5) == frozenset({0, 2, 3})
        assert selector.is_static

    def test_rejects_bad_ids(self, pbft_model):
        with pytest.raises(ValueError):
            FixedSelector(pbft_model, [0, 9])

    def test_singleton_detection(self, benign_model):
        assert FixedSelector(benign_model, [1]).is_singleton
        assert not FixedSelector(benign_model, [0, 1]).is_singleton


class TestAbstractProperties:
    def test_validity_accepts_empty(self, pbft_model):
        selector = AllProcessesSelector(pbft_model)
        assert selector.satisfies_validity(frozenset())

    def test_validity_rejects_small_nonempty(self, pbft_model):
        selector = AllProcessesSelector(pbft_model)
        assert not selector.satisfies_validity(frozenset({0}))  # b = 1 needs > 1

    def test_strong_validity_bound(self):
        model = FaultModel(8, 1, 1)  # 3b + 2f = 5
        selector = AllProcessesSelector(model)
        assert not selector.satisfies_strong_validity(frozenset(range(5)))
        assert selector.satisfies_strong_validity(frozenset(range(6)))
