"""The equivalence table (``equivalences.py``) in tier-1: each arm of every
equivalence against its first arm on the small grids (one case at a time on
a below-CLI grid), every mutation caught on its control grid, every plan
line and every pin of a grid no small run covers whole."""

import pytest

import equivalences as table
from repro.utils.accel import get_numpy

SMALL = [
    pytest.param(
        entry, grid, arm, case,
        id="-".join([entry.name, grid, arm.label] + ([case] if case else [])),
    )
    for entry in table.EQUIVALENCES
    for grid in entry.small
    for case in table.GRIDS[grid].cases or (None,)
    for arm in entry.arms[1:]
]
COVERED = {grid for entry in table.EQUIVALENCES for grid in entry.small
           if not table.GRIDS[grid].cases}
#: Arm outputs shared between the tests, so each first arm runs once.
MEMO: dict = {}


@pytest.mark.parametrize("entry, grid, arm, case", SMALL)
def test_equivalence_holds_on_its_small_grid(entry, grid, arm, case, tmp_path):
    assert list(table.check(entry, table.GRIDS[grid], tmp_path, MEMO, arm, case))


MUTATIONS = [
    pytest.param(
        entry, mutation, control,
        id=entry.name if index == 0 else f"{entry.name}-{mutation.__name__.strip('_')}",
    )
    for entry in table.EQUIVALENCES
    for index, (mutation, control) in enumerate(
        ((entry.mutation, entry.control),) + entry.more
    )
]


@pytest.mark.parametrize("entry, mutation, control", MUTATIONS)
def test_mutation_is_caught(entry, mutation, control, tmp_path):
    if entry.numpy and get_numpy() is None:
        pytest.skip("the mutated path runs only with numpy")
    with mutation():
        found = table.outputs(entry, table.GRIDS[control], tmp_path, workers=1)
    assert any(output != found[0][1] for _arm, output in found)


@pytest.mark.parametrize(
    "grid", [grid for grid in table.GRIDS.values() if grid.plan], ids=lambda grid: grid.name
)
def test_grid_plans_its_tier_line(grid, tmp_path):
    assert table.planned(grid, tmp_path) == grid.plan


def test_gauntlet_puts_columnar_state_cells_on_both_engines():
    """The tier line counts cells; the ``tiers`` entry also needs both
    engines' array programs among them."""
    from repro.campaigns import BUILTIN_CAMPAIGNS
    from repro.engine.batch import MODE_COLUMNAR_STATE, plan_for_run

    modes = {
        (run.engine, plan_for_run(run).mode)
        for run in BUILTIN_CAMPAIGNS["gauntlet"].iter_runs()
    }
    assert ("lockstep", MODE_COLUMNAR_STATE) in modes
    assert ("timed", MODE_COLUMNAR_STATE) in modes


@pytest.mark.parametrize(
    "grid",
    [grid for grid in table.GRIDS.values() if grid.sha and grid.name not in COVERED],
    ids=lambda grid: grid.name,
)
def test_grid_output_is_pinned(grid, tmp_path):
    # A below-CLI grid is pinned on the first arm of its equivalence.
    arm = next(
        (entry.arms[0] for entry in table.EQUIVALENCES if grid.call and grid.name in entry.grids),
        table.DEFAULT,
    )
    output = table.run_arm(grid, arm, tmp_path)
    assert {name: table.sha256(output[name]) for name in grid.sha} == dict(grid.sha)
