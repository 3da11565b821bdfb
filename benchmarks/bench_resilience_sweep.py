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

from repro.analysis.resilience import sweep_class
from repro.campaigns import (
    CampaignSpec,
    format_report,
    run_campaign,
    summarize,
)
from repro.campaigns.presets import BYZANTINE_SCENARIOS
from repro.core.classification import AlgorithmClass
from repro.core.types import FaultModel
from repro.scenarios import ScenarioSpec

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
        scenarios=tuple(
            ScenarioSpec(byzantine=(name,)) for name in BYZANTINE_SCENARIOS
        ),
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

    def sweep_gap():
        b = 1
        gap_rows = sweep_class(
            AlgorithmClass.CLASS_2, [FaultModel(5, b, 0)], max_phases=8
        )
        fab_rows = sweep_class(
            AlgorithmClass.CLASS_1, [FaultModel(5, b, 0)], max_phases=8
        )
        return gap_rows, fab_rows

    gap_rows, fab_rows = benchmark(sweep_gap)
    assert all(row.admitted and row.agreement and row.termination for row in gap_rows)
    assert all(not row.admitted for row in fab_rows)


def test_benign_frontier():
    """b = 0: classes 2/3 at n > 2f, class 1 at n > 3f."""
    rows2 = sweep_class(
        AlgorithmClass.CLASS_2, [FaultModel(3, 0, 1), FaultModel(2, 0, 1)]
    )
    assert rows2[0].admitted and rows2[0].termination
    assert not rows2[1].admitted
    rows1 = sweep_class(
        AlgorithmClass.CLASS_1, [FaultModel(4, 0, 1), FaultModel(3, 0, 1)]
    )
    assert rows1[0].admitted and rows1[0].termination
    assert not rows1[1].admitted
