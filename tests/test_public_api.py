"""The public API surface: everything advertised in __all__ resolves."""

import importlib
import re
from pathlib import Path

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.engine",
    "repro.rounds",
    "repro.network",
    "repro.faults",
    "repro.detectors",
    "repro.quorums",
    "repro.eventsim",
    "repro.smr",
    "repro.algorithms",
    "repro.analysis",
    "repro.campaigns",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version():
    assert repro.__version__ == "1.0.0"


def _python_blocks(text):
    """The bodies of the ```python fences in a markdown document."""
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_quickstart_snippet():
    """The README quickstart — the first python block — runs verbatim."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    quickstart = _python_blocks(readme.read_text(encoding="utf-8"))[0]
    assert "run_instance(instance, LockstepScheduler())" in quickstart
    namespace = {}
    exec(compile(quickstart, "README.md quickstart", "exec"), namespace)
    outcome = namespace["outcome"]
    assert outcome.agreement_holds and outcome.all_correct_decided


def test_docstring_quickstart_in_package():
    """The module docstring example runs (guards doc rot)."""
    from repro import AlgorithmClass, FaultModel, build_class_parameters
    from repro.engine import LockstepScheduler, build_instance, run_instance

    model = FaultModel(n=4, b=1)
    params = build_class_parameters(AlgorithmClass.CLASS_3, model)
    instance = build_instance(
        params, {0: "A", 2: "B", 3: "A"}, byzantine={1: "equivocator"}
    )
    outcome = run_instance(instance, LockstepScheduler())
    assert outcome.decisions
    assert "run_instance(instance, LockstepScheduler())" in repro.__doc__


#: The retired compatibility surface: parallel entry points, their private
#: outcome types and the second campaign dialect.  None may come back.
DELETED_NAMES = [
    "run_consensus", "ConsensusOutcome", "outcome_from_kernel",
    "_build_byzantine", "run_timed_consensus", "TimedOutcome",
    "SyncEngine", "EngineResult", "AdversaryScenario", "SCENARIO_PRESETS",
    "build_scenario", "FaultSpec",
]


@pytest.mark.parametrize(
    "module_name",
    ["repro", "repro.core", "repro.rounds", "repro.eventsim", "repro.faults",
     "repro.campaigns"],
)
def test_deleted_names_stay_deleted(module_name):
    module = importlib.import_module(module_name)
    for name in DELETED_NAMES:
        assert not hasattr(module, name), f"{module_name}.{name} is back"
        assert name not in getattr(module, "__all__", ())


@pytest.mark.parametrize(
    "module_name",
    ["repro.core.run", "repro.eventsim.runtime", "repro.rounds.engine",
     "repro.faults.adversary"],
)
def test_deleted_modules_stay_deleted(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)
