"""Table 1 in code: class bounds, classification, canonical parameters."""

import pytest

from repro.core.classification import (
    AlgorithmClass,
    build_class_parameters,
    classify,
)
from repro.core.parameters import ParameterError
from repro.core.types import FaultModel, Flag


class TestTableOneRows:
    def test_flags(self):
        assert AlgorithmClass.CLASS_1.flag is Flag.ANY
        assert AlgorithmClass.CLASS_2.flag is Flag.CURRENT_PHASE
        assert AlgorithmClass.CLASS_3.flag is Flag.CURRENT_PHASE

    def test_rounds_per_phase_column(self):
        assert AlgorithmClass.CLASS_1.rounds_per_phase == 2
        assert AlgorithmClass.CLASS_2.rounds_per_phase == 3
        assert AlgorithmClass.CLASS_3.rounds_per_phase == 3

    def test_state_column(self):
        assert AlgorithmClass.CLASS_1.state == ("vote",)
        assert AlgorithmClass.CLASS_2.state == ("vote", "ts")
        assert AlgorithmClass.CLASS_3.state == ("vote", "ts", "history")

    @pytest.mark.parametrize(
        "cls, b, f, n",
        [
            # n > 5b + 3f, n > 4b + 2f, n > 3b + 2f.
            (AlgorithmClass.CLASS_1, 1, 0, 6),
            (AlgorithmClass.CLASS_2, 1, 0, 5),
            (AlgorithmClass.CLASS_3, 1, 0, 4),
            (AlgorithmClass.CLASS_1, 0, 1, 4),
            (AlgorithmClass.CLASS_2, 0, 1, 3),
            (AlgorithmClass.CLASS_3, 0, 1, 3),
            (AlgorithmClass.CLASS_1, 2, 1, 14),
            (AlgorithmClass.CLASS_2, 2, 1, 11),
            (AlgorithmClass.CLASS_3, 2, 1, 9),
            (AlgorithmClass.CLASS_3, 2, 2, 11),
        ],
    )
    def test_n_column(self, cls, b, f, n):
        assert cls.min_processes(b, f) == n

    def test_td_column(self):
        model = FaultModel(10, 1, 1)
        # TD > (n + 3b + f)/2 = 7 → 8; TD > 3b + f = 4 → 5; TD > 2b + f = 3 → 4.
        assert AlgorithmClass.CLASS_1.min_threshold(model) == 8
        assert AlgorithmClass.CLASS_2.min_threshold(model) == 5
        assert AlgorithmClass.CLASS_3.min_threshold(model) == 4

    def test_examples_column_mentions_known_algorithms(self):
        assert any("FaB" in e for e in AlgorithmClass.CLASS_1.examples)
        assert any("MQB" in e for e in AlgorithmClass.CLASS_2.examples)
        assert any("PBFT" in e for e in AlgorithmClass.CLASS_3.examples)


class TestAdmits:
    @pytest.mark.parametrize(
        "cls,n,b,expected",
        [
            (AlgorithmClass.CLASS_1, 6, 1, True),
            (AlgorithmClass.CLASS_1, 5, 1, False),
            (AlgorithmClass.CLASS_2, 5, 1, True),
            (AlgorithmClass.CLASS_2, 4, 1, False),
            (AlgorithmClass.CLASS_3, 4, 1, True),
            (AlgorithmClass.CLASS_3, 3, 1, False),
        ],
    )
    def test_byzantine_bounds(self, cls, n, b, expected):
        assert cls.admits(FaultModel(n, b, 0)) is expected

    def test_benign_bounds(self):
        # Classes 2 and 3 coincide at n > 2f when b = 0.
        assert AlgorithmClass.CLASS_2.admits(FaultModel(3, 0, 1))
        assert not AlgorithmClass.CLASS_2.admits(FaultModel(2, 0, 1))
        assert AlgorithmClass.CLASS_1.admits(FaultModel(4, 0, 1))
        assert not AlgorithmClass.CLASS_1.admits(FaultModel(3, 0, 1))


class TestClassify:
    def test_canonical_parameters_classify_back(self):
        cases = [
            (AlgorithmClass.CLASS_1, FaultModel(6, 1, 0)),
            (AlgorithmClass.CLASS_2, FaultModel(5, 1, 0)),
            (AlgorithmClass.CLASS_3, FaultModel(4, 1, 0)),
        ]
        for cls, model in cases:
            params = build_class_parameters(cls, model)
            assert classify(params) is cls

    def test_class2_parameters_also_satisfy_class3(self):
        """The classes nest: class-2 thresholds clear the class-3 bound.

        ``classify`` reports the tightest class (the paper's convention)."""
        model = FaultModel(5, 1, 0)
        params = build_class_parameters(AlgorithmClass.CLASS_2, model)
        assert params.threshold > AlgorithmClass.CLASS_3.td_strict_lower_bound(model)
        assert classify(params) is AlgorithmClass.CLASS_2

    def test_pbft_parameters_are_class3_only(self):
        model = FaultModel(4, 1, 0)
        params = build_class_parameters(AlgorithmClass.CLASS_3, model)
        # TD = 3 ≤ 3b + f = 3: not class 2.
        assert params.threshold <= 3 * model.b + model.f
        assert classify(params) is AlgorithmClass.CLASS_3


class TestBuildClassParameters:
    def test_below_bound_raises(self):
        with pytest.raises(ParameterError):
            build_class_parameters(AlgorithmClass.CLASS_2, FaultModel(4, 1, 0))
        with pytest.raises(ParameterError):
            build_class_parameters(AlgorithmClass.CLASS_3, FaultModel(3, 1, 0))

    def test_custom_threshold(self):
        model = FaultModel(7, 1, 0)
        params = build_class_parameters(
            AlgorithmClass.CLASS_3, model, threshold=4
        )
        assert params.threshold == 4

    def test_default_selector_is_pi(self, pbft_model):
        params = build_class_parameters(AlgorithmClass.CLASS_3, pbft_model)
        assert params.selector.select(0, 1) == frozenset(pbft_model.processes)
