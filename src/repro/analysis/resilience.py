"""Resilience sweeps: empirically mapping the Table-1 bounds.

:func:`sweep_class` — for a class and a grid of ``(n, b)`` / ``(n, f)``,
run a battery of adversarial scenarios and record whether agreement and
termination held, producing the raw data behind
``benchmarks/bench_table1_classification.py`` and
``benchmarks/bench_resilience_sweep.py``.  (To *execute* a below-bound
configuration and exhibit the failure the theory predicts, build it with
:meth:`~repro.core.parameters.ConsensusParameters.unchecked`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.classification import AlgorithmClass
from repro.core.parameters import ConsensusParameters
from repro.core.types import FaultModel
from repro.engine.assembly import build_instance
from repro.engine.kernel import OBSERVE_METRICS, run_instance
from repro.engine.scheduler import LockstepScheduler
from repro.faults.crash import CrashSchedule


@dataclass(frozen=True)
class ScenarioResult:
    """One (configuration, scenario) cell of a sweep."""

    n: int
    b: int
    f: int
    scenario: str
    admitted: bool  # did the class's bounds admit this configuration?
    agreement: Optional[bool] = None
    termination: Optional[bool] = None
    phases: Optional[int] = None


#: Byzantine scenarios exercised per configuration (strategy name per slot).
DEFAULT_BYZANTINE_SCENARIOS: Sequence[str] = (
    "silent",
    "equivocator",
    "vote-flipper",
    "high-ts-liar",
    "fake-history-liar",
)


def sweep_class(
    algorithm_class: AlgorithmClass,
    configurations: Sequence[FaultModel],
    *,
    scenarios: Sequence[str] = DEFAULT_BYZANTINE_SCENARIOS,
    max_phases: int = 12,
) -> List[ScenarioResult]:
    """Run each admissible configuration through the scenario battery.

    Non-admissible configurations produce a single ``admitted=False`` row —
    the constructive counterpart of Table 1's ``n`` column.
    """
    from repro.core.classification import build_class_parameters

    results: List[ScenarioResult] = []
    for model in configurations:
        if not algorithm_class.admits(model):
            results.append(
                ScenarioResult(
                    n=model.n, b=model.b, f=model.f,
                    scenario="-", admitted=False,
                )
            )
            continue
        parameters = build_class_parameters(algorithm_class, model)
        for scenario in _applicable(scenarios, model):
            outcome = _run_scenario(parameters, scenario, max_phases)
            results.append(outcome)
    return results


def _applicable(scenarios: Sequence[str], model: FaultModel) -> Sequence[str]:
    if model.b == 0:
        return ("crash",) if model.f else ("fault-free",)
    return scenarios


def _run_scenario(
    parameters: ConsensusParameters, scenario: str, max_phases: int
) -> ScenarioResult:
    model = parameters.model
    byzantine: Dict[int, str] = {}
    crash_schedule = None
    if scenario == "crash":
        crash_schedule = CrashSchedule.crash_first_f(model, round_number=1)
    elif scenario not in ("fault-free",):
        byzantine = {
            model.n - 1 - i: scenario for i in range(model.b)
        }
    initial_values = {
        pid: f"v{pid % 2}"
        for pid in model.processes
        if pid not in byzantine
    }
    outcome = run_instance(
        build_instance(parameters, initial_values, byzantine=byzantine),
        LockstepScheduler(),
        max_phases=max_phases,
        observe=OBSERVE_METRICS,
        crash_schedule=crash_schedule,
    )
    return ScenarioResult(
        n=model.n, b=model.b, f=model.f,
        scenario=scenario,
        admitted=True,
        agreement=outcome.agreement_holds,
        termination=outcome.all_correct_decided,
        phases=outcome.phases_to_last_decision,
    )
