"""``ci.yml`` runs every cell of ``tests/cells.py`` exactly once, and only
registered ones; read from the two files, without running a cell."""

import re
from pathlib import Path

import cells

CI = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def cell_steps():
    """``(step text, cell names it runs)`` for every ``ci.yml`` step that runs
    ``tests/cells.py``; a bare run names every cell."""
    steps = re.split(r"\n\s+- (?=name:|uses:)", CI.read_text("utf-8"))
    return [
        (step, names.split() or list(cells.CELLS))
        for step in steps
        for names in re.findall(r"python3? tests/cells\.py((?: [\w-]+)*)", step)
    ]


def test_ci_runs_every_registered_cell_once():
    run = [name for _step, names in cell_steps() for name in names]
    assert set(run) <= set(cells.CELLS), set(run) - set(cells.CELLS)
    assert sorted(run) == sorted(cells.CELLS)


def test_the_numpy_only_cell_keeps_its_accel_condition():
    (step,) = [step for step, names in cell_steps() if "pooled-batch" in names]
    assert "if: matrix.numpy == 'accel'" in step
