"""Execution trace bookkeeping."""

from repro.analysis.trace import ExecutionTrace, RoundRecord
from repro.core.types import Decision, RoundInfo, RoundKind


def record(number, phase, kind=RoundKind.DECISION, decisions=(), pcons=False):
    return RoundRecord(
        info=RoundInfo(number, phase, kind),
        sent_count=4,
        delivered_count=3,
        pgood=True,
        pcons=pcons,
        prel=True,
        decisions=tuple(decisions),
    )


def test_append_and_counts():
    trace = ExecutionTrace()
    trace.append(record(1, 1))
    trace.append(record(2, 1))
    assert trace.rounds_executed == 2
    assert [r.sent_count for r in trace.records] == [4, 4]


def test_first_decision_is_kept():
    trace = ExecutionTrace()
    trace.append(record(3, 1, decisions=[Decision(0, "v", 3, 1)]))
    trace.append(record(6, 2, decisions=[Decision(0, "w", 6, 2)]))
    assert trace.decisions[0].value == "v"


def test_decided_values():
    trace = ExecutionTrace()
    trace.append(record(3, 1, decisions=[Decision(0, "v", 3, 1)]))
    trace.append(record(3, 1, decisions=[Decision(1, "v", 3, 1)]))
    assert trace.decided_values() == {"v"}
