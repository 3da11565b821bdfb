"""The kernel round loop over hand-written round processes: scheduling,
crash handling, tracing (``ExecutionKernel`` driven step by step)."""

import pytest

from repro.core.types import FaultModel, RoundInfo, RoundKind
from repro.engine import ExecutionKernel, LockstepScheduler
from repro.faults.crash import CrashEvent, CrashSchedule
from repro.rounds.base import RoundProcess


class EchoProcess(RoundProcess):
    """Broadcasts its id each round and records everything received."""

    def __init__(self, pid, n):
        self.pid = pid
        self.n = n
        self.inboxes = []

    def send(self, info):
        return {dest: ("echo", self.pid, info.number) for dest in range(self.n)}

    def receive(self, info, received):
        self.inboxes.append(dict(received))


def round_info(r):
    return RoundInfo(r, (r + 2) // 3, RoundKind.DECISION)


def build_engine(n=3, **kwargs):
    model = FaultModel(n, 0, kwargs.pop("f", 1))
    processes = {pid: EchoProcess(pid, n) for pid in range(n)}
    engine = ExecutionKernel(
        model,
        processes,
        LockstepScheduler(),
        round_info,
        **kwargs,
    )
    return engine, processes


class TestBasicExecution:
    def test_all_messages_delivered(self):
        engine, processes = build_engine()
        engine.run(2)
        for process in processes.values():
            assert len(process.inboxes) == 2
            assert set(process.inboxes[0]) == {0, 1, 2}

    def test_sender_identity_is_preserved(self):
        engine, processes = build_engine()
        engine.run(1)
        inbox = processes[0].inboxes[0]
        for sender, payload in inbox.items():
            assert payload[1] == sender  # no impersonation

    def test_trace_counts(self):
        engine, _ = build_engine()
        result = engine.run(3)
        assert result.rounds_executed == 3
        assert result.messages_sent == 3 * 9
        assert sum(r.sent_count for r in result.trace.records) == 3 * 9
        assert result.trace.records[0].pgood

    def test_process_coverage_validated(self):
        model = FaultModel(3, 0, 1)
        with pytest.raises(ValueError, match="cover exactly"):
            ExecutionKernel(
                model,
                {0: EchoProcess(0, 3)},
                LockstepScheduler(),
                round_info,
            )

    def test_stop_when(self):
        engine, _ = build_engine()
        result = engine.run(10, stop_when=lambda k: k.rounds_executed >= 4)
        assert result.rounds_executed == 4

    def test_negative_max_rounds(self):
        engine, _ = build_engine()
        with pytest.raises(ValueError):
            engine.run(-1)


class TestCrashHandling:
    def test_clean_crash_delivers_final_round(self):
        schedule = CrashSchedule(
            FaultModel(3, 0, 1), [CrashEvent(0, 2)]
        )
        engine, processes = build_engine(crash_schedule=schedule)
        engine.run(3)
        # Round 2 messages from 0 still arrive; round 3 none.
        assert 0 in processes[1].inboxes[1]
        assert 0 not in processes[1].inboxes[2]

    def test_unclean_crash_drops_final_round(self):
        schedule = CrashSchedule(
            FaultModel(3, 0, 1), [CrashEvent(0, 2, frozenset())]
        )
        engine, processes = build_engine(crash_schedule=schedule)
        engine.run(3)
        assert 0 in processes[1].inboxes[0]
        assert 0 not in processes[1].inboxes[1]

    def test_partial_crash_delivery(self):
        schedule = CrashSchedule(
            FaultModel(3, 0, 1), [CrashEvent(0, 1, frozenset({1}))]
        )
        engine, processes = build_engine(crash_schedule=schedule)
        engine.run(1)
        assert 0 in processes[1].inboxes[0]
        assert 0 not in processes[2].inboxes[0]

    def test_crashed_process_stops_transitioning(self):
        schedule = CrashSchedule(FaultModel(3, 0, 1), [CrashEvent(0, 2)])
        engine, processes = build_engine(crash_schedule=schedule)
        engine.run(4)
        assert len(processes[0].inboxes) == 1  # only round 1

    def test_eventually_correct_excludes_doomed(self):
        schedule = CrashSchedule(FaultModel(3, 0, 1), [CrashEvent(0, 5)])
        engine, _ = build_engine(crash_schedule=schedule)
        assert engine.eventually_correct == frozenset({1, 2})

    def test_context_marks_crash(self):
        schedule = CrashSchedule(FaultModel(3, 0, 1), [CrashEvent(0, 1)])
        engine, _ = build_engine(crash_schedule=schedule)
        engine.run(2)
        assert 0 in engine.context.crashed
