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
#: outcome types, the second campaign dialect, the unused null telemetry,
#: the wrappers over the one crash-safe JSONL layer, and what the
#: reachability census (``tests/test_layering.py``) found only tests read:
#: the duplicate Section 2.3 checkers and Table 1 bounds, small helpers and
#: the ``REPRO_BACKEND`` default; the latency models and the ``Random`` form
#: of a scenario's seed (a ``NetworkSpec`` and an int describe a run's
#: network); the ◇S detector and the leader oracles but Ω (a leader is a
#: function of the phase); the fuzz journal opener and state version a
#: header-taking ``Appender`` and the whole-header compare replaced; the
#: third observation mode (a bound telemetry is the one switch for spans);
#: the implemented-``Pcons`` run route and its outcome type (the stack is
#: the ``pcons-auth`` / ``pcons-sigfree`` engines).
#: None may come back (``MIGRATION.md``).
DELETED_NAMES = [
    "run_consensus", "ConsensusOutcome", "outcome_from_kernel",
    "_build_byzantine", "run_timed_consensus", "TimedOutcome",
    "SyncEngine", "EngineResult", "AdversaryScenario", "SCENARIO_PRESETS",
    "build_scenario", "FaultSpec",
    "NullTelemetry", "_NullSpan", "NULL_TELEMETRY",
    "ResultStore", "FindingLog", "finding_to_json",
    "check_agreement", "check_validity", "check_unanimity",
    "check_termination", "check_integrity", "holds",
    "class1_min_processes", "class2_min_processes", "class3_min_processes",
    "strict_majority", "is_concrete", "format_kv_block",
    "rows_to_jsonl", "read_rows", "scan_checkpoint",
    "CounterMachine", "BACKEND_ENV",
    "LatencyModel", "FixedLatency", "UniformLatency", "RngLike", "_coerce_rng",
    "RunMetrics",
    "DiamondS", "SuspicionSample", "suspicion_driven_oracle",
    "StabilizingLeaderOracle", "rotating_oracle",
    "open_journal", "STATE_VERSION",
    "read_state", "state_path", "truncate_findings",
    "OBSERVE_PROFILE",
    "run_with_pcons_stack", "PconsStackOutcome",
]


@pytest.mark.parametrize(
    "module_name",
    ["repro", "repro.core", "repro.rounds", "repro.eventsim", "repro.faults",
     "repro.campaigns", "repro.campaigns.results", "repro.fuzz",
     "repro.fuzz.corpus", "repro.observability",
     "repro.observability.telemetry", "repro.analysis",
     "repro.analysis.invariants", "repro.analysis.reporting", "repro.core.flv",
     "repro.core.flv_class1", "repro.core.flv_class2", "repro.core.flv_class3",
     "repro.utils", "repro.utils.det", "repro.smr", "repro.smr.machine",
     "repro.campaigns.runner", "repro.eventsim.network", "repro.scenarios",
     "repro.scenarios.compile", "repro.core.selector",
     "repro.algorithms.paxos", "repro.engine", "repro.engine.kernel",
     "repro.network", "repro.network.stack"],
)
def test_deleted_names_stay_deleted(module_name):
    module = importlib.import_module(module_name)
    for name in DELETED_NAMES:
        assert not hasattr(module, name), f"{module_name}.{name} is back"
        assert name not in getattr(module, "__all__", ())


def test_outcome_reads_the_one_property_checker():
    from repro.engine import Outcome

    for name in ("validity_holds", "unanimity_holds"):
        assert not hasattr(Outcome, name), f"Outcome.{name} is back"


#: Members the census found only tests read, and the network's test-only
#: reseed: ``(module, class, member)``.  None may come back.
DELETED_MEMBERS = [
    ("repro.utils.rng", "SeededRng", "spawn"),
    ("repro.utils.rng", "SeededRng", "coin_flips"),
    ("repro.campaigns.spec", "CampaignSpec", "expand"),
    ("repro.analysis.trace", "ExecutionTrace", "total_messages_sent"),
    ("repro.analysis.trace", "ExecutionTrace", "total_messages_delivered"),
    ("repro.analysis.trace", "ExecutionTrace", "first_decision_round"),
    ("repro.analysis.trace", "ExecutionTrace", "last_decision_round"),
    ("repro.analysis.trace", "ExecutionTrace", "rounds_where"),
    ("repro.rounds.schedule", "GoodBadSchedule", "is_bad"),
    ("repro.rounds.base", "RunContext", "is_faulty"),
    ("repro.smr.serve", "WorkloadSpec", "expected_commands"),
    ("repro.eventsim.network", "PartialSynchronyNetwork", "reseed"),
    # The deadline rule is NetworkSpec.arrives.
    ("repro.eventsim.network", "NetworkSpec", "post_gst_transit"),
    ("repro.eventsim.network", "PartialSynchronyNetwork", "constant_transit"),
    ("repro.engine.outcome", "Outcome", "rounds_to_first_decision"),
    ("repro.smr.log", "ReplicatedLog", "committed_prefix"),
    ("repro.scenarios.compile", "CompiledScenario", "honest_values"),
    ("repro.core.selector", "OmegaOracle", "leader"),
    # Config fields nothing set, now module constants.
    ("repro.fuzz.runner", "FuzzConfig", "mutate_prob"),
    ("repro.fuzz.runner", "FuzzConfig", "shrink"),
    ("repro.fuzz.runner", "FuzzConfig", "shrink_attempts"),
    ("repro.fuzz.space", "FuzzSpace", "n_range"),
    ("repro.smr.serve", "ServeConfig", "batch_bytes"),
    ("repro.smr.serve", "ServeConfig", "round_cost"),
    # Whether a post-GST draw is clamped is NetworkSpec.clamps.
    ("repro.eventsim.network", "NetworkSpec", "max_latency"),
]


@pytest.mark.parametrize("module_name,cls,member", DELETED_MEMBERS)
def test_deleted_members_stay_deleted(module_name, cls, member):
    owner = getattr(importlib.import_module(module_name), cls)
    assert not hasattr(owner, member), f"{cls}.{member} is back"


@pytest.mark.parametrize(
    "module_name",
    ["repro.core.run", "repro.eventsim.runtime", "repro.rounds.engine",
     "repro.faults.adversary", "repro.quorums", "repro.analysis.metrics",
     "repro.detectors"],
)
def test_deleted_modules_stay_deleted(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)
