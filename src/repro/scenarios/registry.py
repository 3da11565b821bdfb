"""Named scenario presets: the catalogue every layer shares.

Each entry is a model-agnostic :class:`~repro.scenarios.spec.ScenarioSpec`
that compiles onto any resilience point and onto both engines (where
admissible).  The ``gauntlet`` campaign, the CLI (``repro scenario
list|run``) and the benches all resolve names through this one registry.

==================  ==========================================================
preset              description
==================  ==========================================================
``fault-free``      no faults, permanently good periods — the baseline cell
``worst_case``      max-b Byzantine (strongest strategy mix), permanent
                    synchrony — attacks must be beaten in one phase
``partition_heal``  network split in halves during a bad prefix, healing at
                    round 7, one equivocator riding the partition
``async_then_sync`` random 50% loss until a GST-style round 10, one
                    adaptive liar
``silent_minority`` max-b silent Byzantine (pure withholding)
``crash_storm``     benign: all f crashes land in round 1, messages lost
``lossy_channel``   30% i.i.d. loss in every round (no predicate holds;
                    safety must survive)
``flaky_gst``       alternating 2 good / 1 bad rounds with 50% bad-period
                    loss — repeated short bad periods instead of one prefix
==================  ==========================================================
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios.spec import CommSpec, ScenarioSpec

#: All registered scenarios, keyed by name.
SCENARIO_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry under its own name."""
    if not replace and spec.name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIO_REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIO_REGISTRY)}"
        ) from None


def list_scenarios() -> List[ScenarioSpec]:
    """All registered scenarios, sorted by name."""
    return [SCENARIO_REGISTRY[name] for name in sorted(SCENARIO_REGISTRY)]


register_scenario(ScenarioSpec(name="fault-free"))

register_scenario(
    ScenarioSpec(
        name="worst_case",
        byzantine=(
            "equivocator", "high-ts-liar", "fake-history-liar", "adaptive-liar",
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="partition_heal",
        byzantine=("equivocator",),
        byzantine_count=1,
        comm=CommSpec(
            kind="good-bad", schedule="after", good_from=7, bad="partition"
        ),
        max_phases=15,
    )
)

register_scenario(
    ScenarioSpec(
        name="async_then_sync",
        byzantine=("adaptive-liar",),
        byzantine_count=1,
        comm=CommSpec(
            kind="good-bad", schedule="after", good_from=10, bad="drop",
            drop_prob=0.5,
        ),
        max_phases=18,
    )
)

register_scenario(
    ScenarioSpec(name="silent_minority", byzantine=("silent",))
)

register_scenario(
    ScenarioSpec(name="crash_storm", crashes=-1, crash_round=1, clean=False)
)

register_scenario(
    ScenarioSpec(
        name="lossy_channel",
        comm=CommSpec(kind="lossy", drop_prob=0.3),
        max_phases=18,
    )
)

register_scenario(
    ScenarioSpec(
        name="flaky_gst",
        comm=CommSpec(
            kind="good-bad", schedule="alternating", good_len=2, bad_len=1,
            bad="drop", drop_prob=0.5,
        ),
        max_phases=18,
    )
)
