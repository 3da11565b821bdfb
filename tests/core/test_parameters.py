"""Parameter validation against Theorem 1's conditions."""

import pytest

from repro.core.flv_class1 import FLVClass1
from repro.core.flv_class2 import FLVClass2
from repro.core.flv_class3 import FLVClass3
from repro.core.parameters import (
    ConsensusParameters,
    GenericConsensusConfig,
    ParameterError,
)
from repro.core.selector import AllProcessesSelector, RotatingCoordinatorSelector
from repro.core.types import FaultModel, Flag


def make_params(model, td, flag, flv_cls):
    return ConsensusParameters(
        model=model,
        threshold=td,
        flag=flag,
        flv=flv_cls(model, td),
        selector=AllProcessesSelector(model),
    )


class TestConstraints:
    def test_valid_class3(self, pbft_model):
        params = make_params(pbft_model, 3, Flag.CURRENT_PHASE, FLVClass3)
        assert params.threshold == 3

    def test_termination_bound(self, pbft_model):
        # TD ≤ n − b − f = 3; 4 must be rejected.
        with pytest.raises(ParameterError):
            make_params(pbft_model, 4, Flag.CURRENT_PHASE, FLVClass3)

    def test_flag_any_agreement_bound(self, fab_model):
        # FLAG = * needs TD > (n + b)/2 = 3.5 → 4 minimum.
        with pytest.raises(ParameterError):
            make_params(fab_model, 3, Flag.ANY, FLVClass1)
        params = make_params(fab_model, 4, Flag.ANY, FLVClass1)
        assert params.threshold == 4

    def test_flag_phi_agreement_bound(self, pbft_model):
        # FLAG = φ needs TD > b = 1.
        with pytest.raises(ParameterError):
            make_params(pbft_model, 1, Flag.CURRENT_PHASE, FLVClass3)

    def test_nonpositive_threshold(self, benign_model):
        with pytest.raises(ParameterError):
            make_params(benign_model, 0, Flag.CURRENT_PHASE, FLVClass3)

    def test_flv_threshold_mismatch(self, pbft_model):
        with pytest.raises(ParameterError):
            ConsensusParameters(
                model=pbft_model,
                threshold=3,
                flag=Flag.CURRENT_PHASE,
                flv=FLVClass3(pbft_model, 2),
                selector=AllProcessesSelector(pbft_model),
            )

    def test_flv_model_mismatch(self, pbft_model, mqb_model):
        with pytest.raises(ParameterError):
            ConsensusParameters(
                model=pbft_model,
                threshold=3,
                flag=Flag.CURRENT_PHASE,
                flv=FLVClass3(mqb_model, 3),
                selector=AllProcessesSelector(pbft_model),
            )

    def test_selector_model_mismatch(self, pbft_model, mqb_model):
        with pytest.raises(ParameterError):
            ConsensusParameters(
                model=pbft_model,
                threshold=3,
                flag=Flag.CURRENT_PHASE,
                flv=FLVClass3(pbft_model, 3),
                selector=AllProcessesSelector(mqb_model),
            )


class TestUncheckedParameters:
    def test_bypasses_validation(self):
        model = FaultModel(4, 1, 0)
        # TD = 4 > n − b: normal construction would raise.
        params = ConsensusParameters.unchecked(
            model, 4, Flag.CURRENT_PHASE, FLVClass2(model, 4),
            AllProcessesSelector(model),
        )
        assert isinstance(params, ConsensusParameters)
        assert params.threshold == 4

    def test_product_is_usable(self):
        model = FaultModel(4, 1, 0)
        params = ConsensusParameters.unchecked(
            model, 3, Flag.CURRENT_PHASE, FLVClass2(model, 3),
            AllProcessesSelector(model),
        )
        assert params.rounds_per_phase == 3
        assert params.state_footprint == ("vote", "ts")


class TestDerivedProperties:
    def test_rounds_per_phase(self, pbft_model, fab_model):
        phi = make_params(pbft_model, 3, Flag.CURRENT_PHASE, FLVClass3)
        star = make_params(fab_model, 5, Flag.ANY, FLVClass1)
        assert phi.rounds_per_phase == 3
        assert star.rounds_per_phase == 2

    def test_state_footprint(self, pbft_model, fab_model):
        phi = make_params(pbft_model, 3, Flag.CURRENT_PHASE, FLVClass3)
        star = make_params(fab_model, 5, Flag.ANY, FLVClass1)
        assert phi.state_footprint == ("vote", "ts", "history")
        assert star.state_footprint == ("vote",)

    def test_describe_mentions_threshold(self, pbft_model):
        params = make_params(pbft_model, 3, Flag.CURRENT_PHASE, FLVClass3)
        assert "TD=3" in params.describe()


class TestConfig:
    def test_static_selector_auto(self, pbft_model, benign_model):
        config = GenericConsensusConfig()
        assert config.uses_static_selector(AllProcessesSelector(pbft_model))
        assert not config.uses_static_selector(
            RotatingCoordinatorSelector(benign_model)
        )

    def test_static_selector_override(self, benign_model):
        config = GenericConsensusConfig(static_selector_optimization=True)
        assert config.uses_static_selector(
            RotatingCoordinatorSelector(benign_model)
        )
        config = GenericConsensusConfig(static_selector_optimization=False)
        assert not config.uses_static_selector(
            AllProcessesSelector(FaultModel(4, 1, 0))
        )
