"""Resilience sweep harness."""

import pytest

from repro.analysis.resilience import ScenarioResult, sweep_class
from repro.core.classification import AlgorithmClass
from repro.core.flv_class2 import FLVClass2
from repro.core.parameters import ConsensusParameters
from repro.core.selector import AllProcessesSelector
from repro.core.types import FaultModel, Flag


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


class TestSweep:
    def test_byzantine_sweep_shape(self):
        rows = sweep_class(
            AlgorithmClass.CLASS_3,
            [FaultModel(4, 1, 0), FaultModel(3, 1, 0)],
            scenarios=("silent", "equivocator"),
        )
        admitted = [row for row in rows if row.admitted]
        rejected = [row for row in rows if not row.admitted]
        assert len(admitted) == 2  # two scenarios at n = 4
        assert len(rejected) == 1  # n = 3 refused
        assert all(row.agreement for row in admitted)
        assert all(row.termination for row in admitted)

    def test_benign_sweep_uses_crash_scenario(self):
        rows = sweep_class(
            AlgorithmClass.CLASS_2,
            [FaultModel(3, 0, 1)],
        )
        assert [row.scenario for row in rows] == ["crash"]
        assert rows[0].agreement and rows[0].termination

    def test_fault_free_scenario(self):
        rows = sweep_class(AlgorithmClass.CLASS_2, [FaultModel(3, 0, 0)])
        assert [row.scenario for row in rows] == ["fault-free"]

    def test_row_fields(self):
        row = ScenarioResult(4, 1, 0, "silent", True, True, True, 1)
        assert row.n == 4 and row.phases == 1
