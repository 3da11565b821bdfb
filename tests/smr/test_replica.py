"""Replicated service: repeated consensus end to end."""

import pytest

from repro.algorithms import build_paxos, build_pbft
from repro.smr.machine import KeyValueStore
from repro.smr.replica import ReplicatedService


class TestBenignService:
    def test_commands_apply_identically_everywhere(self):
        service = ReplicatedService(build_paxos(3), KeyValueStore)
        service.submit(("set", "x", 1))
        service.submit(("set", "y", 2))
        service.submit(("del", "x"))
        report = service.run_until_drained()
        assert report.slots_committed == 3
        assert report.digests_agree
        for machine in service.machines.values():
            assert machine.get("x") is None
            assert machine.get("y") == 2

    def test_logs_identical(self):
        service = ReplicatedService(build_paxos(3), KeyValueStore)
        service.submit(("set", "a", 1))
        service.submit(("set", "b", 2))
        service.run_until_drained()
        logs = [
            [entry.command for entry in log.committed_prefix()]
            for log in service.logs.values()
        ]
        assert all(log == logs[0] for log in logs)

    def test_divergent_submissions_still_converge(self):
        # Different clients talk to different replicas: consensus linearizes.
        service = ReplicatedService(build_paxos(3), KeyValueStore)
        service.submit(("set", "x", "from-0"), to=0)
        service.submit(("set", "x", "from-1"), to=1)
        report = service.run_until_drained()
        assert report.digests_agree
        values = {machine.get("x") for machine in service.machines.values()}
        assert len(values) == 1
        assert values <= {"from-0", "from-1"}


class TestByzantineService:
    def test_pbft_replication_under_attack(self):
        service = ReplicatedService(
            build_pbft(4), KeyValueStore, byzantine={3: "equivocator"}
        )
        service.submit(("set", "k", "v"))
        service.submit(("set", "k2", "v2"))
        report = service.run_until_drained()
        assert report.slots_committed == 2
        assert report.digests_agree
        for machine in service.machines.values():
            assert machine.get("k") == "v"


class _FullTraceService(ReplicatedService):
    """A slot driver that runs every slot under full observation.

    Identical queue/gossip/commit logic (inherited); only the consensus
    call differs — a full-trace ``run_instance`` whose statistics are read
    off the trace, instead of the service's metrics-mode run.  The parity
    test below pins that the observation mode changes *how* slots execute,
    not *what* they decide or report.
    """

    def run_slot(self):
        from repro.engine import LockstepScheduler, build_instance, run_instance
        from repro.smr.log import LogEntry

        self._gossip()
        proposals = self._proposals()
        outcome = run_instance(
            build_instance(
                self._spec.parameters,
                proposals,
                config=self._spec.config,
                byzantine=self._byzantine,
            ),
            LockstepScheduler(),
            max_phases=self._max_phases,
        )
        if not outcome.decisions:
            return None
        values = outcome.decided_values
        assert len(values) == 1
        (command,) = values
        slot = min(log.next_slot for log in self.logs.values())
        entry = LogEntry(
            slot=slot, command=command, phases=outcome.phases_to_last_decision
        )
        self._committed.add(command)
        for pid in self._honest:
            self.logs[pid].commit(entry)
            if command != ("noop",):
                self.machines[pid].apply(command)
            queue = self._pending[pid]
            if command in queue:
                queue.remove(command)
        trace = outcome.trace
        self._stats["phases"] += outcome.phases_to_last_decision or 0
        self._stats["rounds"] += trace.rounds_executed
        self._stats["messages"] += trace.total_messages_sent
        return entry


class TestFullTraceParity:
    """The metrics-mode service matches a full-trace replay."""

    COMMANDS = [
        ("set", "x", 1),
        ("set", "y", 2),
        ("set", "x", 3),
        ("del", "y"),
        ("set", "z", "zz"),
    ]

    def _drive(self, service):
        for command in self.COMMANDS:
            service.submit(command)
        report = service.run_until_drained()
        log = next(iter(service.logs.values()))
        commands = [entry.command for entry in log.committed_prefix()]
        phases = [entry.phases for entry in log.committed_prefix()]
        digest = next(iter(service.machines.values())).digest()
        return report, commands, phases, digest

    @pytest.mark.parametrize(
        "build",
        [
            lambda: (build_paxos(3), {}),
            lambda: (build_pbft(4), {3: "equivocator"}),
            lambda: (build_pbft(4), {3: "silent"}),
        ],
        ids=["paxos-benign", "pbft-equivocator", "pbft-silent"],
    )
    def test_reports_and_logs_identical(self, build):
        spec, byzantine = build()
        fast = ReplicatedService(spec, KeyValueStore, byzantine=byzantine)
        traced = _FullTraceService(spec, KeyValueStore, byzantine=byzantine)
        assert self._drive(fast) == self._drive(traced)


class TestReport:
    def test_phases_per_slot(self):
        service = ReplicatedService(build_paxos(3), KeyValueStore)
        service.submit(("set", "x", 1))
        report = service.run_until_drained()
        assert report.phases_per_slot >= 1.0
        assert report.total_messages > 0

    def test_empty_service_noop(self):
        service = ReplicatedService(build_paxos(3), KeyValueStore)
        report = service.run_until_drained()
        assert report.slots_committed == 0
        assert report.phases_per_slot == 0.0
