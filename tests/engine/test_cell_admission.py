"""The one admission step, and everything that runs cells agreeing on it.

:func:`repro.engine.cell.admit` is ``FaultModel`` construction → algorithm
resolution → hosted-envelope check, memoized per process.  The campaign
oracle, the batch prologue, the fuzzer and the SMR serving loop all go
through it, so for any ``(algorithm, n, b, f)`` they must agree on whether
the cell runs and, when it does not, on the words that say why.
"""

from __future__ import annotations

import pytest

from repro.algorithms import ALGORITHM_BUILDERS, build_pbft
from repro.campaigns.runner import execute_run
from repro.core.parameters import ParameterError
from repro.engine.batch import MODE_COLUMNAR_STATE, BatchPlan, run_batch
from repro.engine.cell import (
    _RESOLVE_MEMO,
    RunSpec,
    admit,
    open_row,
    rejection_message,
)
from repro.fuzz import FuzzCandidate, execute_candidate
from repro.scenarios.registry import get_scenario
from repro.smr import ServeConfig, WorkloadSpec, run_serve

#: ``(algorithm, (n, b, f), status, message fragment or None when admitted)``.
TABLE = [
    ("pbft", (4, 1, 0), "ok", None),
    ("class-3", (7, 1, 1), "ok", None),
    ("one-third-rule", (4, 0, 1), "ok", None),
    # Table 1: class 1 needs n > 5b + 3f = 8.
    ("class-1", (7, 1, 1), "inadmissible", "n > 5b + 3f"),
    ("pbft", (3, 1, 0), "inadmissible", "PBFT requires n > 3b"),
    # Builders resolve their own envelope: PBFT hosts no crash faults,
    # Paxos no Byzantine ones.
    ("pbft", (7, 2, 2), "inadmissible",
     "pbft hosts (b=2, f=0), grid point wants (b=2, f=2)"),
    ("paxos", (5, 1, 1), "inadmissible", "paxos hosts (b=0, f="),
    # Not a fault model at all.
    ("pbft", (2, 2, 0), "inadmissible", "n=2"),
    ("nope", (4, 1, 0), "error", "unknown algorithm 'nope'; known: ["),
]
IDS = [f"{algorithm}-{n}-{b}-{f}" for algorithm, (n, b, f), _s, _m in TABLE]

SCENARIO = get_scenario("lossy_channel")  # seed-dependent: batches as an array


def _run(algorithm, n, b, f):
    return RunSpec(
        campaign="admission", run_id=0, algorithm=algorithm, n=n, b=b, f=f,
        engine="lockstep", scenario=SCENARIO, rep=0, seed=11, max_phases=15,
    )


def _verdicts(algorithm, n, b, f):
    """``(status, error)`` as each of the four executors reports the cell
    (the serving loop raises instead of returning a row)."""
    run = _run(algorithm, n, b, f)
    oracle = execute_run(run)
    (batch,) = run_batch([run], plan=BatchPlan(MODE_COLUMNAR_STATE, "forced"))
    fuzz = execute_candidate(
        FuzzCandidate(algorithm, n, b, f, "lockstep", SCENARIO),
        seed=11, over_bound="never",
    )
    try:
        run_serve(
            ServeConfig(algorithm=algorithm, n=n, b=b, f=f),
            WorkloadSpec(clients=1, rate=10.0, duration=0.2),
        )
        served = None
    except Exception as exc:
        served = exc
    return (
        [(row["status"], row["error"]) for row in (oracle, batch, fuzz)],
        served,
    )


@pytest.mark.parametrize("algorithm, model, status, fragment", TABLE, ids=IDS)
def test_every_executor_reports_the_same_verdict(
    algorithm, model, status, fragment
):
    rows, served = _verdicts(algorithm, *model)
    assert rows[0][0] == status
    assert rows[1] == rows[0] and rows[2] == rows[0]
    if fragment is None:
        assert rows[0][1] is None and served is None
    else:
        assert fragment in rows[0][1]
        # The row's text is the raised message (behind the type name for a
        # non-ValueError), never a different wording of it.
        assert rejection_message(served) in rows[0][1]
        if status == "inadmissible":
            assert isinstance(served, ValueError)
            assert rejection_message(served) == rows[0][1]


@pytest.mark.parametrize("algorithm, model, status, fragment", TABLE, ids=IDS)
def test_memo_replays_the_identical_outcome(algorithm, model, status, fragment):
    if fragment is None:
        assert admit(algorithm, *model) is admit(algorithm, *model)
        return
    raised = []
    for _ in range(3):
        with pytest.raises((ValueError, KeyError)) as info:
            admit(algorithm, *model)
        raised.append(info.value)
    # The deterministic rejection is replayed as a fresh copy of the memoized
    # exception — same type, same arguments — so no replay's traceback (and
    # the caller frames it holds) outlives its caller inside the memo.
    ok, cached = _RESOLVE_MEMO[(algorithm, *model)]
    assert ok is False and cached.__traceback__ is None
    for exc in raised:
        assert (type(exc), exc.args) == (type(cached), cached.args)
        assert exc is not cached
    assert raised[1] is not raised[2]
    assert fragment in rejection_message(raised[0])


def test_hosted_envelope_rejection_is_a_parameter_error():
    with pytest.raises(ParameterError, match="grid point wants"):
        admit("pbft", 7, 2, 2)


def test_open_row_carries_the_verdict():
    row, admitted = open_row(_run("class-1", 7, 1, 1))
    assert admitted is None
    assert (row["status"], row["rounds"]) == ("inadmissible", None)
    row, admitted = open_row(_run("pbft", 4, 1, 0))
    assert (row["status"], row["error"]) == ("ok", None)
    assert admitted is admit("pbft", 4, 1, 0)
    model, parameters, _config = admitted
    assert (model.n, parameters.model.b) == (4, 1)


def test_transient_failure_is_reported_alike_and_never_cached(monkeypatch):
    """A builder that runs out of memory is this attempt's problem, not the
    cell's verdict for the rest of the worker's life."""
    healthy = []

    def flaky(n, b=None):
        if not healthy:
            raise MemoryError("builder out of memory")
        return build_pbft(n, b)

    monkeypatch.setitem(ALGORITHM_BUILDERS, "flaky", flaky)
    with pytest.raises(MemoryError):
        admit("flaky", 4, 1, 0)
    assert ("flaky", 4, 1, 0) not in _RESOLVE_MEMO
    rows, served = _verdicts("flaky", 4, 1, 0)
    assert rows == [("error", "MemoryError: builder out of memory")] * 3
    assert isinstance(served, MemoryError)
    healthy.append(True)
    rows, served = _verdicts("flaky", 4, 1, 0)
    assert [status for status, _error in rows] == ["ok"] * 3 and served is None
    _RESOLVE_MEMO.pop(("flaky", 4, 1, 0))  # the builder is about to vanish
