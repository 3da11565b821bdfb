"""Experiment A3/T1 — resilience sweep: where each class lives and dies.

Sweeps n for b ∈ {1, 2} across all three classes: configurations above the
Table-1 bound must survive the full adversarial battery; configurations at
or below the bound must be rejected by the constraint checker.  This is the
constructive reproduction of the paper's headline (FaB n > 5b, MQB n > 4b,
PBFT n > 3b) and of MQB's existence claim.

The grid runs on the campaign engine (``repro.campaigns``): the sweep is a
declarative :class:`CampaignSpec`, below-bound cells come back as
``inadmissible`` rows, and the printed table is the campaign's aggregated
per-cell report.
"""

import pytest

from repro.campaigns import (
    CampaignSpec,
    format_report,
    run_campaign,
    summarize,
)
from repro.campaigns.presets import BYZANTINE_SCENARIOS
from repro.core.classification import AlgorithmClass
from repro.scenarios import ScenarioSpec

#: One scenario per strategy of the battery, on all ``b`` slots.
BATTERY = tuple(ScenarioSpec(byzantine=(name,)) for name in BYZANTINE_SCENARIOS)

BOUND_FACTOR = {
    AlgorithmClass.CLASS_1: 5,
    AlgorithmClass.CLASS_2: 4,
    AlgorithmClass.CLASS_3: 3,
}


def sweep_campaign(cls: AlgorithmClass, b: int) -> CampaignSpec:
    factor = BOUND_FACTOR[cls]
    return CampaignSpec(
        name=f"resilience-class{cls.value}-b{b}",
        algorithms=(f"class-{cls.value}",),
        models=tuple(
            (n, b, 0)
            for n in range(max(b + 1, factor * b - 1), factor * b + 3)
        ),
        scenarios=BATTERY,
        max_phases=8,
    )


@pytest.mark.parametrize("cls", list(AlgorithmClass))
@pytest.mark.parametrize("b", [1, 2])
def test_sweep(cls, b, report):
    factor = BOUND_FACTOR[cls]
    rows = run_campaign(sweep_campaign(cls, b))
    report(
        f"{cls.name}, b={b} (bound n > {factor}b):\n"
        + format_report(summarize(rows))
    )
    for row in rows:
        cell = f"n={row['n']} {row['fault']}"
        if row["n"] > factor * b:
            assert row["status"] == "ok", f"{cell} should be admitted"
            assert row["agreement"], f"{cell}: agreement broke"
            assert row["termination"], f"{cell}: stuck"
        else:
            assert row["status"] == "inadmissible", f"{cell} should be rejected"


def test_mqb_exists_exactly_in_the_gap(benchmark):
    """The paper's discovery: class 2 fills 4b < n ≤ 5b for f = 0."""
    gap = CampaignSpec(
        name="mqb-gap",
        algorithms=("class-2", "class-1"),
        models=((5, 1, 0),),
        scenarios=BATTERY,
        max_phases=8,
    )
    rows = benchmark(run_campaign, gap)
    assert len(rows) == 2 * len(BATTERY)
    for row in rows:
        if row["algorithm"] == "class-2":
            assert row["status"] == "ok"
            assert row["agreement"] and row["termination"]
        else:
            assert row["status"] == "inadmissible"


def test_benign_frontier():
    """b = 0: classes 2/3 at n > 2f, class 1 at n > 3f."""
    frontier = CampaignSpec(
        name="benign-frontier",
        algorithms=("class-2", "class-1"),
        models=((4, 0, 1), (3, 0, 1), (2, 0, 1)),
        scenarios=(ScenarioSpec(name="crash-f", crashes=-1),),
        max_phases=12,
    )
    verdict = {
        (row["algorithm"], row["n"]): (row["status"], row["termination"])
        for row in run_campaign(frontier)
    }
    assert verdict["class-2", 3] == ("ok", True)
    assert verdict["class-2", 2] == ("inadmissible", None)
    assert verdict["class-1", 4] == ("ok", True)
    assert verdict["class-1", 3] == ("inadmissible", None)
