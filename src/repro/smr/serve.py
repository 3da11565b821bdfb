"""Pipelined, batched SMR serving: open-loop client load through consensus.

The paper's Section 5.3 frames Paxos/PBFT as "a sequence of instances of
consensus".  This module is that sequence run as a *service*: an open-loop
workload of client commands flows into a replicated log where each slot is
decided by one instance of the generic algorithm on the unified kernel's
``observe="metrics"`` hot path, with the two classic serving optimizations:

* **request batching** — one consensus instance decides an ordered *batch*
  of up to ``batch`` commands per slot, formed deterministically in
  arrival order;
* **leader pipelining** — up to ``depth`` slots are in flight at once
  (slot ``k+1`` proposed while slot ``k`` is still deciding), with
  out-of-order decides buffered by the serve loop and committed to the
  replicated log and applied *in order*.

Time is simulated: slot ``s`` proposed at clock ``t`` commits at ``t + d``
where ``d`` is the deciding instance's duration (simulated time on the
timed engine, one time unit a round under lockstep), so a request's
latency is ``apply_time − arrival_time`` — arrivals are open-loop and never
wait for service progress.  Every honest replica proposes the same batch,
so a slot's decided value equals its batch whenever the decision is honest;
an undecided slot (or a Byzantine-injected foreign value) is retried *in
the same slot index* with an attempt-derived seed, which keeps the
committed command sequence FIFO-equal to the arrival order at **every**
``(batch, depth)`` setting — the digest-equivalence oracle the test suite
sweeps.

**Slot outcomes and replication.**  Deciding a slot yields a *slot
outcome* ``(duration, phases, ok, messages, rounds, retries, rejected)``;
the slot runner sums the counts of the outcomes it decides, weights a
reused one by the slots it stands for, and writes the counters once per
serve.  The serve cell is classified once by the campaign
planner (:func:`~repro.engine.batch.plan.plan_cell`): under
``MODE_REPLICATE`` the outcome is seed-independent, and because every
honest replica proposes the same batch — always a ``tuple``, which the
value order ranks after every ``str`` a whitelisted Byzantine strategy
utters — it is batch-independent too, so the first slot's outcome stands
for every later slot and one instance runs per serve.  Any other verdict
runs one instance per attempt.

**Books per slot.**  The loop's per-request work is a few operations: a
full pipeline window queues every arrival due by its earliest commit in
one inner loop, and latency is accounted per applied slot — one
``extend`` per histogram into a local float64 array, handed to the
registry once the serve ends
(:meth:`~repro.observability.telemetry.Telemetry.observe_many`).  Every
applied slot is committed to one
:class:`~repro.smr.log.ReplicatedLog`, which streams the log digest and
keeps 16 bytes a slot.

**Memory.**  The workload generator is lazy end to end (per-client arrival
streams merged on the fly) and holds O(clients × keys) state.  The serve
itself keeps four float64 latency samples a request (32 bytes) and 16
bytes a slot, so a million-request run retains about 35 MB of samples and
digests and no Python object per request.
"""

from __future__ import annotations

import heapq
import random
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from math import inf, log
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.engine.assembly import build_instance
from repro.engine.batch.plan import MODE_REPLICATE, MODE_SCALAR, plan_cell
from repro.engine.cell import admit, derive_seed, rejection_message
from repro.engine.kernel import OBSERVE_METRICS, run_instance
from repro.observability.telemetry import Telemetry
from repro.scenarios.compile import compile_scenario
from repro.scenarios.registry import SCENARIO_REGISTRY, get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.smr.log import LogEntry, ReplicatedLog
from repro.smr.machine import Command, KeyValueStore, StateMachine

__all__ = [
    "ServeConfig",
    "ServeReport",
    "WorkloadSpec",
    "run_serve",
    "sweep_serve",
]

#: Arrival disciplines the workload generator supports.
ARRIVALS = ("poisson", "fixed")

#: Histogram the per-request latencies land in.
LATENCY_HISTOGRAM = "smr.request_latency"

#: Simulated duration of one lockstep round (timed runs use the network's
#: own simulated clock instead).
ROUND_COST = 1.0

#: The serve's histograms, in the order a serve first observes them.
_SERVE_HISTOGRAMS = (
    "smr.batch_size", LATENCY_HISTOGRAM, "smr.latency.queue_wait",
    "smr.latency.consensus", "smr.latency.apply_wait",
)


# --------------------------------------------------------------- workload


@dataclass(frozen=True)
class WorkloadSpec:
    """An open-loop client workload: seeded arrivals, generated lazily.

    ``rate`` is the *aggregate* arrival rate (commands per simulated time
    unit) split evenly over ``clients``; each client draws its own seeded
    inter-arrival stream (exponential for ``"poisson"``, constant for
    ``"fixed"``) and issues ``("set", key, seq)`` commands over a ``keys``-
    sized keyspace.  Streams are merged by arrival time on the fly, so the
    expected ``rate × duration`` commands are never materialized — millions
    of requests cost O(clients) memory.
    """

    clients: int = 4
    rate: float = 200.0
    duration: float = 1.0
    arrival: str = "poisson"
    keys: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be ≥ 1, got {self.clients}")
        # ``not 0 < x < inf`` also rejects nan; an infinite rate or a nan
        # duration would never end the arrival stream.
        if not 0 < self.rate < inf:
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        if not 0 < self.duration < inf:
            raise ValueError(
                f"duration must be finite and > 0, got {self.duration}"
            )
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival discipline {self.arrival!r}; known: {ARRIVALS}"
            )
        if self.keys < 1:
            raise ValueError(f"keys must be ≥ 1, got {self.keys}")

    def client_stream(self, client: int) -> Iterator[Tuple[float, int, Command]]:
        """One client's lazy ``(arrival_time, client, command)`` stream."""
        draw = random.Random(derive_seed(self.seed, f"client{client}")).random
        rate = self.rate / self.clients
        step = 1.0 / rate
        poisson = self.arrival == "poisson"
        keys = self.keys
        names = [f"c{client}k{key}" for key in range(keys)]
        now = 0.0
        seq = 0
        while True:
            if poisson:
                # ``Random.expovariate(rate)``'s own expression, inlined.
                now += -log(1.0 - draw()) / rate
            else:
                # Multiply, don't accumulate: summed steps drift past the
                # duration boundary and drop the last arrival.
                now = step * (seq + 1)
            if now > self.duration:
                return
            yield now, client, ("set", names[seq % keys], seq)
            seq += 1

    def arrivals(self) -> Iterator[Tuple[float, Command]]:
        """All clients' streams merged by arrival time (ties: client id)."""
        merged = heapq.merge(*map(self.client_stream, range(self.clients)))
        for when, _client, command in merged:
            yield when, command


# ----------------------------------------------------------------- config


@dataclass(frozen=True)
class ServeConfig:
    """The serving side: consensus cell, batching and pipelining knobs.

    ``batch`` caps commands per slot; ``depth`` is the pipeline window —
    how many slots may be deciding at once.  ``batch=1, depth=1`` is the
    slot-at-a-time baseline every other setting must be digest-equal to.
    ``max_attempts`` bounds same-slot retries before the service reports
    itself stalled.
    """

    algorithm: str = "pbft"
    n: int = 4
    b: int = 1
    f: int = 0
    scenario: Union[str, ScenarioSpec] = "fault-free"
    engine: str = "lockstep"
    batch: int = 8
    depth: int = 2
    seed: int = 0
    max_phases: Optional[int] = None
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError(f"batch must be ≥ 1, got {self.batch}")
        if self.depth < 1:
            raise ValueError(f"depth must be ≥ 1, got {self.depth}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be ≥ 1, got {self.max_attempts}")
        if self.max_phases is not None and self.max_phases < 1:
            raise ValueError(f"max_phases must be ≥ 1, got {self.max_phases}")

    def scenario_spec(self) -> ScenarioSpec:
        if isinstance(self.scenario, ScenarioSpec):
            return self.scenario
        return get_scenario(self.scenario)


# ----------------------------------------------------------------- report


@dataclass
class ServeReport:
    """Everything a serve run measured, JSON-friendly via :meth:`to_row`."""

    algorithm: str
    scenario: str
    engine: str
    batch: int
    depth: int
    #: Commands that arrived (entered the open-loop queue).
    offered: int
    #: Commands committed and applied in log order.
    committed_commands: int
    slots_committed: int
    #: Extra same-slot consensus attempts (undecided or rejected value).
    retries: int
    #: Attempts whose decided value was not the proposed batch.
    rejected: int
    #: True when a slot exhausted ``max_attempts`` and serving stopped.
    stalled: bool
    simulated_duration: float
    wall_seconds: float
    #: Committed commands per wall-clock second — the bench figure.
    throughput: float
    #: Request-latency stats (simulated units): count/min/max/mean/p50/p95/p99.
    latency: Dict[str, float]
    digests_agree: bool
    #: The common state-machine digest (``None`` if replicas diverged).
    digest: Optional[str]
    #: Digest over the committed command sequence (prefix-equality oracle).
    log_digest: str
    #: The run's instrument registry (counters + latency histogram).
    telemetry: Optional[Telemetry] = field(default=None, repr=False)
    #: ``"<tier> — <why>"``: how slots were served (never part of a row).
    tier: str = field(default="", repr=False)

    @property
    def mean_batch_size(self) -> float:
        if not self.slots_committed:
            return 0.0
        return self.committed_commands / self.slots_committed

    def to_row(self) -> Dict[str, object]:
        """A flat JSON-serializable row (telemetry handle stripped)."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "scenario": self.scenario,
            "engine": self.engine,
            "batch": self.batch,
            "depth": self.depth,
            "offered": self.offered,
            "committed_commands": self.committed_commands,
            "slots_committed": self.slots_committed,
            "retries": self.retries,
            "rejected": self.rejected,
            "stalled": self.stalled,
            "simulated_duration": round(self.simulated_duration, 6),
            "throughput": round(self.throughput, 2),
            "digests_agree": self.digests_agree,
            "digest": self.digest,
            "log_digest": self.log_digest,
        }
        for column in ("p50", "p95", "p99", "mean", "max"):
            value = self.latency.get(column)
            row[f"latency_{column}"] = (
                round(value, 6) if value is not None else None
            )
        # Wall time is volatile (machine-dependent); keep it out of the
        # canonical columns the sweep JSONL is compared on.
        row["_wall_seconds"] = round(self.wall_seconds, 6)
        return row


# ------------------------------------------------------------------ serve


#: One decided slot: (duration, phases, ok, messages, rounds, retries, rejected).
SlotOutcome = Tuple[float, Optional[int], bool, int, int, int, int]


class _SlotRunner:
    """Executes one log slot's consensus (with same-slot retry semantics)."""

    def __init__(self, config: ServeConfig, telemetry: Telemetry) -> None:
        self._config = config
        self._telemetry = telemetry
        self._spec = config.scenario_spec()
        # The campaign runner's admission: a config outside the
        # algorithm's resilience bound, or asking for more faults than its
        # envelope hosts (crash faults under PBFT, say), is not servable.
        self.model, self._parameters, self._algo_config = admit(
            config.algorithm, config.n, config.b, config.f
        )
        # Placement is seed-independent — compile once up front so an
        # inapplicable scenario raises before any state is built.
        probe = compile_scenario(
            self._spec, self.model, config.engine, 0
        )
        self.byzantine = probe.byzantine
        self._max_phases = (
            config.max_phases
            if config.max_phases is not None
            else probe.max_phases()
        )
        # The campaign planner's verdict on this cell, asked once: only
        # ``replicate`` has a serve form, every other tier runs per slot.
        plan = plan_cell(
            self._spec, config.engine, self._algo_config,
            parameters=self._parameters,
        )
        self._replicate = plan.mode == MODE_REPLICATE
        self.tier = (
            f"{plan.mode} — {plan.reason}"
            if plan.mode in (MODE_REPLICATE, MODE_SCALAR)
            else f"{MODE_SCALAR} — planner's {plan.mode} tier has no serve form"
        )
        self._first: Optional[SlotOutcome] = None
        #: Slots run, and the decided outcomes' summed (messages, rounds,
        #: retries, rejected); :meth:`account` writes them once.
        self._slots = 0
        self._sums = (0, 0, 0, 0)
        self.retries = 0
        self.rejected = 0

    def run(
        self, slot: int, batch: Command
    ) -> Tuple[float, Optional[int], bool]:
        """Decide ``batch`` in ``slot``; returns (duration, phases, ok).

        A replicating cell decides its first slot and reuses that outcome.
        ``ok=False`` means the slot exhausted its attempt budget — the
        service reports itself stalled.
        """
        self._slots += 1
        outcome = self._first
        if outcome is None:
            outcome = self._decide(slot, batch)
            self._sums = tuple(a + b for a, b in zip(self._sums, outcome[3:]))
            if self._replicate:
                self._first = outcome
        return outcome[:3]

    def account(self) -> None:
        """Write the serve's slot counters once, as counting per slot would:
        a reused outcome counts once per slot it stands for."""
        if not self._slots:
            return
        scale = self._slots if self._first is not None else 1
        messages, rounds, self.retries, self.rejected = (t * scale for t in self._sums)
        count = self._telemetry.count
        count("smr.messages", messages)
        count("smr.rounds", rounds)
        for name, value in (
            ("smr.retries", self.retries),
            ("smr.rejected", self.rejected),
            ("smr.retries.undecided", self.retries - self.rejected),
            ("smr.slots_replicated", scale - 1),
        ):
            if value:
                count(name, value)

    def _decide(self, slot: int, batch: Command) -> SlotOutcome:
        """Run ``slot``'s consensus attempts; accounts nothing but instances.

        Each attempt is one consensus instance under an attempt-derived
        seed; the duration of *every* attempt accumulates into the slot's
        commit latency.
        """
        config = self._config
        duration = 0.0
        messages = rounds = retries = rejected = 0
        phases: Optional[int] = None
        for attempt in range(config.max_attempts):
            run_seed = derive_seed(config.seed, f"slot{slot}attempt{attempt}")
            compiled = compile_scenario(
                self._spec, self.model, config.engine, run_seed
            )
            values = {
                pid: batch
                for pid in self.model.processes
                if pid not in compiled.byzantine
            }
            instance = build_instance(
                self._parameters,
                values,
                config=self._algo_config,
                byzantine=compiled.byzantine,
                seed=compiled.seed,
            )
            outcome = run_instance(
                instance,
                compiled.scheduler,
                max_phases=self._max_phases,
                observe=OBSERVE_METRICS,
                crash_schedule=compiled.crash_schedule,
            )
            self._telemetry.count("smr.instances_run")
            messages += outcome.messages_sent
            rounds += outcome.rounds_executed
            if config.engine == "timed" and outcome.simulated_time is not None:
                duration += outcome.simulated_time
            else:
                duration += outcome.rounds_executed * ROUND_COST
            phases = outcome.phases_to_last_decision
            decided = outcome.decided_value
            if decided == batch:
                break
            if decided is not None:
                # All honest replicas proposed the batch, so a different
                # decided value is Byzantine-injected; a real service
                # validates commands before applying and skips the slot.
                rejected += 1
            retries += 1
        ok = retries < config.max_attempts
        return duration, phases, ok, messages, rounds, retries, rejected


def run_serve(
    config: ServeConfig,
    workload: Optional[WorkloadSpec] = None,
    *,
    arrivals: Optional[Iterable[Tuple[float, Command]]] = None,
    machine_factory: Callable[[], StateMachine] = KeyValueStore,
    telemetry: Optional[Telemetry] = None,
) -> ServeReport:
    """Serve an open-loop workload through batched, pipelined consensus.

    ``arrivals`` overrides the generated workload with an explicit
    ``(arrival_time, command)`` stream (how the bench replays one fixed
    command list through both serving modes).  Raises what
    :func:`~repro.engine.cell.admit` raises for a cell it rejects, and
    :class:`~repro.scenarios.compile.ScenarioInapplicable` when the
    configured model cannot host the fault scenario.
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    workload = workload if workload is not None else WorkloadSpec()
    stream = iter(arrivals if arrivals is not None else workload.arrivals())
    runner = _SlotRunner(config, telemetry)
    honest = [
        pid for pid in runner.model.processes if pid not in runner.byzantine
    ]
    machines: Dict[int, StateMachine] = {pid: machine_factory() for pid in honest}
    appliers = [machines[pid].apply for pid in honest]
    # Every replica commits the same decided sequence, so one log digests it.
    slot_log = ReplicatedLog()
    commit = slot_log.commit

    pending: deque = deque()  # arrived, not yet batched: (arrival, command)
    popleft = pending.popleft
    # slot → (commit time, proposal time, batch, arrival times, phases)
    in_flight: Dict[int, tuple] = {}
    decided: Dict[int, tuple] = {}
    clock = 0.0
    next_slot = 0
    apply_slot = 0  # in-order apply watermark (first slot not yet applied)
    offered = 0
    committed_commands = 0
    stalled = False
    # Histogram samples, one extend per applied slot, recorded at the end.
    books: Dict[str, array] = {name: array("d") for name in _SERVE_HISTOGRAMS}
    batch_sizes, latencies, queue_waits, consensus_waits, apply_waits = books.values()
    wall_start = perf_counter()
    next_arrival = next(stream, None)

    while True:
        # Propose: fill the pipeline window from the pending queue.
        while not stalled and pending and len(in_flight) < config.depth:
            take = min(len(pending), config.batch)
            arrival_times, batch = zip(*[popleft() for _ in range(take)])
            duration, phases, ok = runner.run(next_slot, batch)
            if not ok:
                stalled = True
                telemetry.count("smr.stalled_slots")
                break
            in_flight[next_slot] = (
                clock + duration, clock, batch, arrival_times, phases
            )
            next_slot += 1
        # Every pass starts after a commit or with a proposal, so the window
        # has changed: find the earliest commit.  Slots sit in insertion (=
        # index) order; the strict comparison breaks ties toward the lowest.
        commit_slot: Optional[int] = None
        commit_time = inf
        for slot, flight in in_flight.items():
            if flight[0] < commit_time:
                commit_slot, commit_time = slot, flight[0]
        if not stalled:
            # Arrivals due by the earliest commit join the queue.  A full
            # window cannot propose before that commit, so it takes them
            # all; with room, each one is proposed at once.
            room = len(in_flight) < config.depth
            while next_arrival is not None and next_arrival[0] <= commit_time:
                when = next_arrival[0]
                if when > clock:
                    clock = when
                pending.append(next_arrival)
                offered += 1
                next_arrival = next(stream, None)
                if room:
                    break
            if room and pending:
                continue
        if commit_slot is None:
            break  # nothing deciding, nothing arriving (or stalled dry)
        # Commit: pop the earliest completion; decide order may be
        # out-of-order in the slot index, so buffer and apply the
        # contiguous prefix only.
        decided[commit_slot] = in_flight.pop(commit_slot)
        if commit_time > clock:
            clock = commit_time
        while apply_slot in decided:
            (
                committed_at, proposed_at, applied_batch, applied_arrivals,
                applied_phases,
            ) = decided.pop(apply_slot)
            commit(LogEntry(apply_slot, applied_batch, phases=applied_phases))
            for apply in appliers:
                for command in applied_batch:
                    apply(command)
            # Where each request's latency went; the three parts sum to it.
            width = len(applied_batch)
            batch_sizes.append(float(width))
            latencies.extend([clock - arrived for arrived in applied_arrivals])
            queue_waits.extend([proposed_at - arrived for arrived in applied_arrivals])
            consensus_waits.extend([committed_at - proposed_at] * width)
            apply_waits.extend([clock - committed_at] * width)
            committed_commands += width
            apply_slot += 1

    # Every proposed slot has committed and applied by now.
    runner.account()
    if apply_slot:
        telemetry.count("smr.slots", apply_slot)
        telemetry.count("smr.commands", committed_commands)
    for name, samples in books.items():
        telemetry.observe_many(name, samples)
        del samples[:]  # the registry holds the copy; free this one now
    wall_seconds = perf_counter() - wall_start
    digests = {machine.digest() for machine in machines.values()}
    latency: Dict[str, float] = {}
    if LATENCY_HISTOGRAM in telemetry.histogram_names:
        latency = telemetry.histogram_stats(LATENCY_HISTOGRAM)
    spec = runner._spec if isinstance(config.scenario, ScenarioSpec) else None
    return ServeReport(
        algorithm=config.algorithm,
        scenario=spec.name if spec is not None else str(config.scenario),
        engine=config.engine,
        batch=config.batch,
        depth=config.depth,
        offered=offered,
        committed_commands=committed_commands,
        slots_committed=apply_slot,
        retries=runner.retries,
        rejected=runner.rejected,
        stalled=stalled,
        simulated_duration=clock,
        wall_seconds=wall_seconds,
        throughput=committed_commands / wall_seconds if wall_seconds else 0.0,
        latency=latency,
        digests_agree=len(digests) == 1,
        digest=next(iter(digests)) if len(digests) == 1 else None,
        log_digest=slot_log.digest(),
        telemetry=telemetry,
        tier=runner.tier,
    )


# ------------------------------------------------------------------ sweep


#: The default load axis of :func:`sweep_serve` (commands per time unit).
DEFAULT_RATES = (50.0, 200.0, 800.0)


def sweep_serve(
    config: ServeConfig,
    workload: WorkloadSpec,
    *,
    rates: Iterable[float] = DEFAULT_RATES,
    scenarios: Optional[Iterable[Union[str, ScenarioSpec]]] = None,
) -> List[Dict[str, object]]:
    """Campaign cells: serve the workload at every load × fault scenario.

    Each cell derives its own seeds from the base config/workload seeds and
    its coordinates (the campaign convention — rows are independent of
    sweep order).  A cell that cannot be served — the algorithm rejects
    the model, or the model cannot host the scenario — becomes an
    ``"inapplicable"`` row carrying the reason; a stalled cell keeps its
    measurements under status ``"stalled"``.
    """
    names = (
        list(scenarios)
        if scenarios is not None
        else sorted(SCENARIO_REGISTRY)
    )
    rows: List[Dict[str, object]] = []
    for rate in rates:
        for scenario in names:
            name = (
                scenario.name
                if isinstance(scenario, ScenarioSpec)
                else str(scenario)
            )
            coordinate = f"serve|{name}|rate{rate:g}"
            cell_config = replace(
                config,
                scenario=scenario,
                seed=derive_seed(config.seed, coordinate),
            )
            cell_workload = replace(
                workload,
                rate=rate,
                seed=derive_seed(workload.seed, coordinate),
            )
            base: Dict[str, object] = {"rate": rate, "cell": coordinate}
            try:
                report = run_serve(cell_config, cell_workload)
            except (ValueError, KeyError) as exc:
                rows.append(
                    {
                        **base,
                        "status": "inapplicable",
                        "scenario": name,
                        "detail": rejection_message(exc),
                    }
                )
                continue
            rows.append(
                {
                    **base,
                    "status": "stalled" if report.stalled else "ok",
                    **report.to_row(),
                }
            )
    return rows
