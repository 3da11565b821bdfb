"""The contract of ``gates.py``'s table: a broken subject is a named miss
(exit 1), a raising gate a miss showing its message; and G5's runner checks,
untimed, on every leg."""

import pytest

import gates
from repro.engine.batch import plan as planner


def test_a_broken_subject_is_a_named_miss(monkeypatch, capsys):
    # The batch planner sends every cell to the scalar tier: a replicated cell
    # dispatches no faster than the per-run oracle.
    g2 = {"G2-batch-10x-scalar": gates.GATES["G2-batch-10x-scalar"]}
    gates.windows.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(planner, "plan_cell",
                      lambda *args, **kwargs: planner.BatchPlan(planner.MODE_SCALAR, "patched"))
        assert gates.main(g2) == 1
    gates.windows.cache_clear()
    assert gates.main(g2) == 0
    verdicts = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
                if not line.lstrip().startswith("arm")]
    assert verdicts == [["MISS", "G2-batch-10x-scalar"], ["ok", "G2-batch-10x-scalar"]]


def test_a_gate_that_raises_is_a_miss_with_its_message():
    assert gates.check(lambda: {}["vote"]) == ("raised KeyError: 'vote'", False)


@pytest.mark.parametrize("key", gates.ENGINE_ARMS)
def test_each_engine_arm_passes_its_runner_checks(key):
    # G5's checks, untimed, on every leg: a kernel run keeps agreement; a
    # chunk returns 64 ok rows, with or without numpy.
    call, *_ = gates.runner(key)
    call()
