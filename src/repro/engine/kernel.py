"""The execution kernel: one round loop for every timing discipline.

:class:`ExecutionKernel` advances all processes round by round:

1. ask every live process for its outbound messages (``S_p^r``),
2. apply the crash schedule (a crashing process's last sends may be cut),
3. hand the outbound matrix to the :class:`~repro.engine.scheduler.RoundScheduler`
   (which realizes the communication predicate or the round deadline),
4. deliver and apply transition functions (``T_p^r``),
5. probe for new decisions and — in ``observe="full"`` mode — evaluate the
   communication predicates over what actually happened and append a
   :class:`~repro.analysis.trace.RoundRecord` to the trace.

``observe="metrics"`` skips step 5's record construction entirely: no
:class:`RoundRecord`, no trace, no predicate evaluation, no snapshot dicts —
only decisions and message counters.  This is the hot path campaign sweeps
run on.

The kernel guarantees *no impersonation*: a payload delivered as coming from
``q`` was produced by ``q`` in this round (Byzantine senders choose payloads
freely but cannot relabel them).

A delivered message lives as long as its round: once step 4's transitions
have run, the kernel clears the payload validators' caches
(:func:`~repro.core.types.clear_payload_caches`), so nothing it delivered in
round ``r`` stays reachable from the kernel after the round.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.analysis.trace import ExecutionTrace, RoundRecord
from repro.core.types import (
    Decision, FaultModel, ProcessId, Round, RoundInfo, clear_payload_caches,
)
from repro.engine.outcome import Outcome
from repro.engine.scheduler import RoundScheduler
from repro.faults.crash import CrashSchedule
from repro.observability.telemetry import Telemetry
from repro.rounds.base import OutboundMatrix, RoundProcess, RunContext
from repro.rounds.predicates import check_pcons, check_pgood, check_prel

#: Record a full execution trace (one RoundRecord per round, predicates,
#: optional snapshots) — what interactive runs and invariant tests need.
OBSERVE_FULL = "full"
#: Record only decisions and message counters — the campaign hot path.
#: Phase spans are a separate switch: a bound ``telemetry`` registry.
OBSERVE_METRICS = "metrics"

OBSERVE_MODES = (OBSERVE_FULL, OBSERVE_METRICS)

#: The run horizon every path takes when none is asked for: a run stops
#: after this many phases unless its scenario needs more (see
#: :meth:`~repro.scenarios.compile.CompiledScenario.max_phases`).
DEFAULT_PHASES = 15

#: Maps a global round number to its (phase, kind) description.
RoundInfoFn = Callable[[Round], RoundInfo]

#: Optional observer: (pid, process) → state snapshot for the trace.
SnapshotFn = Callable[[ProcessId, RoundProcess], object]

#: Optional decision probe: (pid, process, info) → Decision or None.
DecisionProbe = Callable[[ProcessId, RoundProcess, RoundInfo], Optional[Decision]]

#: Early-stop test, applied to the kernel after every round.
StopWhen = Callable[["ExecutionKernel"], bool]


class ExecutionKernel:
    """Deterministic execution of round processes under one scheduler."""

    def __init__(
        self,
        model: FaultModel,
        processes: Mapping[ProcessId, RoundProcess],
        scheduler: RoundScheduler,
        round_info_fn: RoundInfoFn,
        *,
        context: Optional[RunContext] = None,
        crash_schedule: Optional[CrashSchedule] = None,
        snapshot_fn: Optional[SnapshotFn] = None,
        decision_probe: Optional[DecisionProbe] = None,
        record_snapshots: bool = False,
        observe: str = OBSERVE_FULL,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if set(processes) != set(model.processes):
            raise ValueError(
                f"processes must cover exactly 0..{model.n - 1}, "
                f"got {sorted(processes)}"
            )
        if observe not in OBSERVE_MODES:
            raise ValueError(
                f"unknown observe mode {observe!r}; known: {OBSERVE_MODES}"
            )
        self._model = model
        self._processes = dict(processes)
        self._scheduler = scheduler
        scheduler.reset()  # schedulers may carry per-run state (clock, queue)
        # Always (re)bound, so a scheduler reused across runs never reports
        # into a stale registry; ``None`` keeps both the kernel and the
        # scheduler on their exact un-instrumented code paths.
        self._telemetry = telemetry
        scheduler.set_telemetry(telemetry)
        self._round_info_fn = round_info_fn
        self._context = context or RunContext(model)
        self._crashes = crash_schedule or CrashSchedule.none(model)
        self._has_crashes = bool(self._crashes.doomed)
        self._pid_set = frozenset(model.processes)
        self._snapshot_fn = snapshot_fn
        self._decision_probe = decision_probe
        self._record_snapshots = record_snapshots
        self._observe = observe
        self._trace: Optional[ExecutionTrace] = (
            ExecutionTrace() if observe == OBSERVE_FULL else None
        )
        self._next_round: Round = 1
        self._rounds_executed = 0
        self._decisions: Dict[ProcessId, Decision] = {}
        self._decision_times: Dict[ProcessId, float] = {}
        # Honest processes whose first decision has not fired yet — the
        # probe scans only these.
        self._undecided: Dict[ProcessId, RoundProcess] = {
            pid: process
            for pid, process in self._processes.items()
            if pid not in self._context.byzantine
        }
        self._messages_sent = 0
        self._messages_delivered = 0
        self._messages_dropped = 0
        self._simulated_time: Optional[float] = None
        # Processes doomed to crash are not "correct" in the model's sense:
        # predicates only protect processes that never crash.
        self._eventually_correct = frozenset(
            pid
            for pid in model.processes
            if pid not in self._context.byzantine and pid not in self._crashes.doomed
        )

    # -- read-only state ---------------------------------------------------

    @property
    def context(self) -> RunContext:
        return self._context

    @property
    def scheduler(self) -> RoundScheduler:
        return self._scheduler

    @property
    def observe(self) -> str:
        return self._observe

    @property
    def trace(self) -> Optional[ExecutionTrace]:
        """The execution trace; ``None`` in metrics mode."""
        return self._trace

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The bound instrumentation registry; ``None`` when disabled."""
        return self._telemetry

    @property
    def decisions(self) -> Dict[ProcessId, Decision]:
        """First decision of each process so far."""
        return self._decisions

    @property
    def decision_times(self) -> Dict[ProcessId, float]:
        """pid → simulated decision time (timed schedulers only)."""
        return self._decision_times

    @property
    def rounds_executed(self) -> int:
        return self._rounds_executed

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        return self._messages_delivered

    @property
    def messages_dropped(self) -> int:
        return self._messages_dropped

    @property
    def simulated_time(self) -> Optional[float]:
        """End time of the last executed round; ``None`` if untimed."""
        return self._simulated_time

    @property
    def eventually_correct(self) -> frozenset:
        """Honest processes that never crash during this run."""
        return self._eventually_correct

    # -- the round loop ----------------------------------------------------

    def _collect_outbound(self, info: RoundInfo) -> OutboundMatrix:
        n = self._model.n
        pid_set = self._pid_set
        has_crashes = self._has_crashes
        outbound: OutboundMatrix = {}
        for pid, process in self._processes.items():
            if has_crashes and self._crashes.is_down(pid, info.number):
                continue
            raw = process.send(info)
            if has_crashes:
                raw = self._crashes.filter_outbound(pid, info.number, raw)
            # Drop messages addressed outside Π (defensive); the well-formed
            # common case is kept without copying.
            if raw.keys() <= pid_set:
                outbound[pid] = raw
            else:
                outbound[pid] = {
                    dest: payload
                    for dest, payload in raw.items()
                    if 0 <= dest < n
                }
        return outbound

    def _apply_transitions_fast(self, info: RoundInfo, matrix) -> None:
        """Crash-free transition step (no per-process schedule checks)."""
        empty: Dict[ProcessId, object] = {}
        get = matrix.get
        for pid, process in self._processes.items():
            process.receive(info, get(pid, empty))

    def _apply_transitions(self, info: RoundInfo, matrix) -> None:
        for pid, process in self._processes.items():
            if self._crashes.is_down(pid, info.number):
                continue
            event = self._crashes.event_for(pid)
            if event is not None and info.number >= event.round:
                # The process crashed during its send step this round; it
                # performs no transition and is marked crashed.
                self._context.mark_crashed(pid)
                continue
            process.receive(info, matrix.get(pid, {}))

    def _probe_decisions(
        self, info: RoundInfo, end_time: Optional[float]
    ) -> tuple:
        if self._decision_probe is None or not self._undecided:
            return ()
        fired = []
        for pid, process in list(self._undecided.items()):
            decision = self._decision_probe(pid, process, info)
            if decision is not None:
                fired.append(decision)
                self._decisions[pid] = decision
                del self._undecided[pid]
                if end_time is not None:
                    self._decision_times[pid] = end_time
        return tuple(fired)

    def step(self) -> Optional[RoundRecord]:
        """Execute one round; returns its record (``None`` in metrics mode)."""
        if self._telemetry is not None:
            return self._step_profiled(self._telemetry)
        info = self._round_info_fn(self._next_round)
        outbound = self._collect_outbound(info)
        delivery = self._scheduler.deliver_round(info, outbound, self._context)
        matrix = delivery.matrix
        if self._has_crashes:
            self._apply_transitions(info, matrix)
        else:
            self._apply_transitions_fast(info, matrix)
        clear_payload_caches()
        fired = self._probe_decisions(info, delivery.end_time)
        return self._account(info, outbound, delivery, fired)

    def _step_profiled(self, tel: Telemetry) -> Optional[RoundRecord]:
        """The instrumented round: each phase wall-timed into a span.

        The round's phase attribution is: ``kernel.send`` (collect the
        outbound matrix), ``scheduler.deliver`` (whatever scheduler is
        bound; the timed one nests a ``network.sample`` span inside it),
        ``kernel.apply`` (transition functions), ``kernel.probe`` (decision
        probes) and ``kernel.observe`` (message accounting plus — in full
        mode — predicate evaluation and trace recording).
        """
        info = self._round_info_fn(self._next_round)
        with tel.span("kernel.send"):
            outbound = self._collect_outbound(info)
        with tel.span("scheduler.deliver"):
            delivery = self._scheduler.deliver_round(
                info, outbound, self._context
            )
        matrix = delivery.matrix
        with tel.span("kernel.apply"):
            if self._has_crashes:
                self._apply_transitions(info, matrix)
            else:
                self._apply_transitions_fast(info, matrix)
            clear_payload_caches()
        with tel.span("kernel.probe"):
            fired = self._probe_decisions(info, delivery.end_time)
        with tel.span("kernel.observe"):
            return self._account(info, outbound, delivery, fired)

    def _account(
        self, info: RoundInfo, outbound: OutboundMatrix, delivery, fired
    ) -> Optional[RoundRecord]:
        """Fold one delivered round into counters (and the trace, if any)."""
        matrix = delivery.matrix
        sent = sum(map(len, outbound.values()))
        delivered = sum(map(len, matrix.values()))
        self._messages_sent += sent
        self._messages_delivered += delivered
        self._messages_dropped += delivery.dropped
        if self._telemetry is not None:
            # Per-round delivery volume as a histogram: instrumented runs
            # get p50/p95/p99 columns in the phase table for free.  The
            # un-instrumented path never reaches this branch.
            self._telemetry.observe("round.delivered", float(delivered))
        if delivery.end_time is not None:
            self._simulated_time = delivery.end_time
        self._next_round += 1
        self._rounds_executed += 1

        if self._trace is None:
            return None
        correct = self._eventually_correct
        minimum = self._model.n - self._model.b - self._model.f
        record = RoundRecord(
            info=info,
            sent_count=sent,
            delivered_count=delivered,
            pgood=check_pgood(outbound, matrix, correct),
            pcons=check_pcons(outbound, matrix, correct),
            prel=check_prel(matrix, correct, minimum),
            snapshots=(
                {
                    pid: self._snapshot_fn(pid, process)
                    for pid, process in self._processes.items()
                    if pid not in self._context.byzantine
                }
                if (self._record_snapshots and self._snapshot_fn is not None)
                else {}
            ),
            decisions=fired,
        )
        self._trace.append(record)
        return record

    def run(
        self, max_rounds: int, *, stop_when: Optional[StopWhen] = None
    ) -> "ExecutionKernel":
        """Run up to ``max_rounds`` rounds, early-stopping on ``stop_when``."""
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        executed = 0
        while executed < max_rounds:
            self.step()
            executed += 1
            if stop_when is not None and stop_when(self):
                break
        return self


def run_instance(
    instance,
    scheduler: RoundScheduler,
    *,
    max_phases: int = DEFAULT_PHASES,
    observe: str = OBSERVE_FULL,
    crash_schedule: Optional[CrashSchedule] = None,
    record_snapshots: Optional[bool] = None,
    stop_when: Optional[StopWhen] = None,
    telemetry: Optional[Telemetry] = None,
) -> Outcome:
    """Run one assembled :class:`~repro.engine.assembly.Instance` to completion.

    The run stops as soon as every eventually-correct process has decided,
    or after ``max_phases`` phases (override with ``stop_when``).
    ``record_snapshots`` defaults to the observation mode: full observation
    records per-round state snapshot dicts, metrics mode records nothing
    per-round.
    A ``telemetry`` registry, in either mode, wall-times every round's
    phases into spans and comes back as ``Outcome.telemetry``.
    """
    if observe == "profile":
        # The retired spelling of metrics-plus-telemetry, which the end-to-end
        # tracer (benchmarks/e2e/trace.py) still passes beside its registry.
        observe = OBSERVE_METRICS
    if record_snapshots is None:
        record_snapshots = observe == OBSERVE_FULL
    kernel = ExecutionKernel(
        instance.parameters.model,
        instance.processes,
        scheduler,
        instance.structure.info,
        context=instance.context,
        crash_schedule=crash_schedule,
        snapshot_fn=instance.snapshot,
        decision_probe=instance.decision_probe,
        record_snapshots=record_snapshots,
        observe=observe,
        telemetry=telemetry,
    )
    if stop_when is None:
        target = kernel.eventually_correct

        def stop_when(k: ExecutionKernel) -> bool:
            return target <= set(k.decisions)

    kernel.run(
        instance.structure.rounds_for_phases(max_phases), stop_when=stop_when
    )
    return Outcome(
        parameters=instance.parameters,
        structure=instance.structure,
        processes=instance.processes,
        initial_values=instance.initial_values,
        context=kernel.context,
        correct=kernel.eventually_correct,
        decisions=kernel.decisions,
        decision_times=kernel.decision_times,
        rounds_executed=kernel.rounds_executed,
        simulated_time=kernel.simulated_time,
        messages_sent=kernel.messages_sent,
        messages_delivered=kernel.messages_delivered,
        messages_dropped=kernel.messages_dropped,
        observe=kernel.observe,
        trace=kernel.trace,
        telemetry=kernel.telemetry,
    )
