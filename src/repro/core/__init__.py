"""The paper's primary contribution: the generic consensus algorithm.

Public surface:

* :class:`~repro.core.types.FaultModel` — the (n, b, f) envelope;
* :class:`~repro.core.parameters.ConsensusParameters` — the four parameters
  (TD, FLAG, FLV, Selector) of Algorithm 1;
* :class:`~repro.core.process.GenericConsensusProcess` — Algorithm 1 itself;
* :class:`~repro.core.classification.AlgorithmClass` — Table 1 in code.
"""

from repro.core.classification import (
    AlgorithmClass,
    build_class_parameters,
    classify,
)
from repro.core.flv import FLVFunction, FLVRequirements, FLVResult
from repro.core.flv_class1 import FLVClass1
from repro.core.flv_class2 import FLVClass2
from repro.core.flv_class3 import FLVClass3
from repro.core.parameters import (
    ConsensusParameters,
    GenericConsensusConfig,
    ParameterError,
)
from repro.core.process import GenericConsensusProcess, RoundStructure
from repro.core.selector import (
    AllProcessesSelector,
    FixedSelector,
    LeaderSelector,
    RotatingCoordinatorSelector,
    RotatingSubsetSelector,
    Selector,
)
from repro.core.state import ConsensusState
from repro.core.types import FaultModel, Flag, RoundKind

__all__ = [
    "AlgorithmClass",
    "AllProcessesSelector",
    "ConsensusParameters",
    "ConsensusState",
    "FLVClass1",
    "FLVClass2",
    "FLVClass3",
    "FLVFunction",
    "FLVRequirements",
    "FLVResult",
    "FaultModel",
    "FixedSelector",
    "Flag",
    "GenericConsensusConfig",
    "GenericConsensusProcess",
    "LeaderSelector",
    "ParameterError",
    "RotatingCoordinatorSelector",
    "RotatingSubsetSelector",
    "RoundKind",
    "RoundStructure",
    "Selector",
    "build_class_parameters",
    "classify",
]
