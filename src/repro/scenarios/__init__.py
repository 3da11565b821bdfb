"""Declarative scenarios: one spec language compiled onto both schedulers.

A :class:`ScenarioSpec` describes an execution environment — Byzantine
placement and strategy per slot, a crash script, the communication schedule
(reliable / good-bad with pluggable bad behaviour / partition / i.i.d. loss
/ silence / GST) and timed-network conditions — as plain, model-agnostic
data.  :func:`compile_scenario` resolves it against one ``(n, b, f)`` model
and one timing discipline into the Byzantine map, crash schedule and
:class:`~repro.engine.scheduler.RoundScheduler` the unified kernel runs::

    from repro.scenarios import compile_scenario, get_scenario, run_scenario

    outcome = run_scenario("partition_heal", params, engine="timed", rng=7)
    assert outcome.agreement_holds

Named presets live in :data:`SCENARIO_REGISTRY`; the campaign ``scenarios``
axis, the ``gauntlet`` campaign and the ``repro scenario`` CLI all resolve
through this one catalogue.
"""

from repro.scenarios.compile import (
    CompiledScenario,
    ScenarioInapplicable,
    compile_scenario,
    run_scenario,
)
from repro.scenarios.registry import (
    SCENARIO_REGISTRY,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.scenarios.spec import CommSpec, NetworkSpec, ScenarioSpec, split_values

__all__ = [
    "CommSpec",
    "CompiledScenario",
    "NetworkSpec",
    "SCENARIO_REGISTRY",
    "ScenarioInapplicable",
    "ScenarioSpec",
    "compile_scenario",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run_scenario",
    "split_values",
]
