"""Byte-identity of the heap-free timed delivery against the legacy heap.

The fast path replaces the EventQueue push/pop cycle with a direct deadline
comparison per message.  These tests prove the replacement changes nothing
observable: delivery matrices, drop counts, round end times and — crucially
— the network RNG stream are identical, message for message and draw for
draw, under every regime (pre/post GST, fixed/uniform latency, Byzantine
canonicalization, bad-round edge rules).  The ``heap`` entry of the
equivalence table (``tests/equivalences.py``) extends the same claim to
whole result files and fuzz verdict streams.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel, RoundInfo, RoundKind
from repro.engine.scheduler import TimedScheduler
from repro.eventsim.network import NetworkSpec
from repro.rounds.base import RunContext
from repro.rounds.schedule import GoodBadSchedule
from repro.scenarios import SCENARIO_REGISTRY, run_scenario


def make_network(*, gst=0.0, seed=11, **latency):
    """δ = 2 and p = 0.5 over ``latency`` (default uniform [0.5, 2])."""
    return NetworkSpec(gst=gst, delta=2.0, pre_gst_delay_prob=0.5, **latency).build(
        seed
    )


def broadcast_outbound(model, payload_fn):
    """Everyone sends to everyone; payloads vary per (sender, dest)."""
    return {
        sender: {dest: payload_fn(sender, dest) for dest in model.processes}
        for sender in model.processes
    }


def run_both(make_scheduler, rounds, model, byzantine=frozenset()):
    """Drive fast and heap schedulers through identical rounds, comparing."""
    fast = make_scheduler(use_heap=False)
    slow = make_scheduler(use_heap=True)
    fast.reset()
    slow.reset()
    ctx_fast = RunContext(model, byzantine=byzantine)
    ctx_slow = RunContext(model, byzantine=byzantine)
    deliveries = []
    for info, outbound in rounds:
        a = fast.deliver_round(info, outbound, ctx_fast)
        b = slow.deliver_round(info, outbound, ctx_slow)
        assert a.matrix == b.matrix, f"matrix diverged in round {info.number}"
        assert a.dropped == b.dropped, f"drops diverged in round {info.number}"
        assert a.end_time == b.end_time
        deliveries.append(a)
    return deliveries


@pytest.mark.parametrize("gst", [0.0, 7.0, 100.0])
def test_uniform_latency_matches_heap_across_gst(gst):
    """Pre-GST chaos, the GST boundary and post-GST clamping all agree."""
    model = FaultModel(5, 0, 0)
    seeds = {}

    def make(use_heap):
        network = make_network(gst=gst, seed=23)
        seeds[use_heap] = network
        return TimedScheduler(network, use_heap=use_heap)

    rounds = [
        (
            RoundInfo(r, (r - 1) // 3 + 1, RoundKind.DECISION),
            broadcast_outbound(model, lambda s, d, r=r: ("msg", r, s, d)),
        )
        for r in range(1, 9)
    ]
    run_both(make, rounds, model)
    # The RNG streams advanced identically: the next draw agrees too.
    assert seeds[False].transit_time(99.0, 0, 1) == seeds[True].transit_time(
        99.0, 0, 1
    )


def test_selection_round_canonicalizes_byzantine_payloads():
    """Equivocating selection payloads pin to the first-addressed one."""
    model = FaultModel(4, 1, 0)
    byz = frozenset({3})

    def make(use_heap):
        return TimedScheduler(make_network(high=1.5, seed=7), use_heap=use_heap)

    info = RoundInfo(1, 1, RoundKind.SELECTION)
    outbound = broadcast_outbound(model, lambda s, d: (s, d))
    (delivery,) = run_both(make, [(info, outbound)], model, byzantine=byz)
    # Every receiver saw the same canonical payload from the equivocator.
    seen = {inbox[3] for inbox in delivery.matrix.values() if 3 in inbox}
    assert len(seen) == 1


def test_bad_round_rule_matches_heap_and_skips_sampling():
    """Rule-rejected edges drop identically and never draw a latency."""
    model = FaultModel(4, 0, 0)

    def rule(sender, dest):
        return (sender + dest) % 2 == 0

    def make(use_heap):
        return TimedScheduler(
            make_network(seed=3),
            good_bad=(GoodBadSchedule.never_good(), rule),
            use_heap=use_heap,
        )

    rounds = [
        (
            RoundInfo(r, r, RoundKind.DECISION),
            broadcast_outbound(model, lambda s, d: (s, d)),
        )
        for r in range(1, 5)
    ]
    deliveries = run_both(make, rounds, model)
    for delivery in deliveries:
        assert delivery.dropped >= 8  # half the 16 edges fail the rule


def test_post_gst_fixed_latency_draws_nothing():
    """The fixed-latency short-circuit leaves the RNG stream untouched."""
    model = FaultModel(4, 0, 0)
    network = make_network(kind="fixed", low=1.0, seed=42)
    scheduler = TimedScheduler(network, use_heap=False)
    scheduler.reset()
    ctx = RunContext(model)
    info = RoundInfo(1, 1, RoundKind.DECISION)
    delivery = scheduler.deliver_round(
        info, broadcast_outbound(model, lambda s, d: "x"), ctx
    )
    assert delivery.dropped == 0
    assert all(len(inbox) == model.n for inbox in delivery.matrix.values())
    # Zero draws: the stream equals a fresh one with the same seed.
    assert network.transit_time(99.0, 0, 1) == make_network(
        kind="fixed", low=1.0, seed=42
    ).transit_time(99.0, 0, 1)


def test_pre_gst_fixed_latency_still_draws_the_chaos_coin():
    """Before GST even fixed latency flips the delay coin per message."""
    model = FaultModel(3, 0, 0)

    def make(use_heap):
        return TimedScheduler(
            make_network(kind="fixed", low=1.0, gst=50.0, seed=9),
            use_heap=use_heap,
        )

    rounds = [
        (
            RoundInfo(r, r, RoundKind.DECISION),
            broadcast_outbound(model, lambda s, d: "y"),
        )
        for r in range(1, 4)
    ]
    deliveries = run_both(make, rounds, model)
    # With p=0.5 and chaos x50 across 27 messages, some must miss.
    assert sum(d.dropped for d in deliveries) > 0


def _run_summary(outcome):
    return (
        {
            pid: (d.value, d.round, outcome.decision_times.get(pid))
            for pid, d in outcome.decisions.items()
        },
        outcome.rounds_executed,
        outcome.messages_sent,
        outcome.messages_delivered,
        outcome.messages_dropped,
        outcome.simulated_time,
    )


@pytest.mark.parametrize("observe", ["metrics", "profile"])
@pytest.mark.parametrize("gst", [0.0, 10.0])
@pytest.mark.parametrize("kind", ["uniform", "fixed"])
@pytest.mark.parametrize("name", sorted(SCENARIO_REGISTRY))
def test_every_scenario_runs_the_same_on_fast_sweep_and_heap(
    monkeypatch, name, kind, gst, observe
):
    """Whole runs, good and bad rounds alike, instrumented or not.

    ``observe="profile"`` binds telemetry, so the sweep opens its
    ``network.sample`` span; that must change nothing either.
    """
    model = FaultModel(7, 1, 1)
    params = build_class_parameters(AlgorithmClass.CLASS_3, model)
    base = SCENARIO_REGISTRY[name]
    spec = replace(base, timing=replace(base.timing, kind=kind, gst=gst))
    summaries = []
    for slow in ("0", "1"):  # compile_scenario builds its scheduler from the env
        monkeypatch.setenv("REPRO_SLOW_SCHEDULER", slow)
        outcome = run_scenario(spec, params, engine="timed", rng=17, observe=observe)
        summaries.append(_run_summary(outcome))
    fast, heap = summaries
    assert fast == heap
    assert fast[2] > 0  # messages were sent


def test_slow_scheduler_env_switch(monkeypatch):
    """REPRO_SLOW_SCHEDULER=1 selects the heap path at construction."""
    network = make_network(seed=1)
    monkeypatch.setenv("REPRO_SLOW_SCHEDULER", "1")
    assert TimedScheduler(network)._queue is not None
    monkeypatch.setenv("REPRO_SLOW_SCHEDULER", "0")
    assert TimedScheduler(network)._queue is None
    monkeypatch.delenv("REPRO_SLOW_SCHEDULER")
    assert TimedScheduler(network)._queue is None
    # The explicit argument wins over the environment.
    monkeypatch.setenv("REPRO_SLOW_SCHEDULER", "1")
    assert TimedScheduler(network, use_heap=False)._queue is None


def test_sample_round_matches_per_message_stream():
    """sample_round consumes the RNG exactly as transit_time per edge."""
    edges = [(s, d) for s in range(6) for d in range(6)]
    for kind in ("uniform", "fixed"):
        for gst, send_time in [(0.0, 0.0), (30.0, 2.5), (30.0, 30.0)]:
            batched = make_network(kind=kind, gst=gst, seed=5)
            serial = make_network(kind=kind, gst=gst, seed=5)
            expected = [serial.transit_time(send_time, s, d) for s, d in edges]
            assert batched.sample_round(send_time, edges) == expected
            # ... and leaves the stream where the per-message draws do.
            assert batched.transit_time(0.0, 0, 1) == serial.transit_time(0.0, 0, 1)


@pytest.mark.parametrize("kind", ["uniform", "fixed"])
def test_columnar_state_transits_match_per_message_stream(kind):
    """The batch backend's per-run RNG contract, at the network layer.

    The columnar-state tier's timed mask producer never calls the network:
    it re-derives each round's transit times from bulk
    :meth:`~repro.utils.accel.StreamSet.ragged` draws.  Those must be the
    floats the scalar network hands the scheduler, draw for draw — pre-GST
    chaos pairs, post-GST clamping and the fixed model's coin-only stream
    included — and leave the stream where the scalar one stands.
    """
    from types import SimpleNamespace

    from repro.engine.batch.columnar_state import CellProgram
    from repro.utils.accel import StreamSet, get_numpy

    np = get_numpy()
    if np is None:
        pytest.skip("columnar-state needs numpy")
    edges = [(s, d) for s in range(6) for d in range(6)]
    for gst, send_time, delta in [(0.0, 0.0, 2.0), (30.0, 2.5, 2.0),
                                  (30.0, 30.0, 2.0), (0.0, 0.0, 1.2)]:
        spec = NetworkSpec(kind=kind, gst=gst, delta=delta)
        program = SimpleNamespace(np=np, timing=spec, max_rounds=1)
        CellProgram._compile_timing(program)
        stream = StreamSet(np, [5])
        serial = spec.build(5)
        for _ in range(2):  # consecutive rounds continue one stream
            expected = serial.sample_round(send_time, edges)
            if serial.constant_transit(send_time) is not None:
                continue  # the zero-draw branch: nothing to mirror
            got = CellProgram._transits(
                program, SimpleNamespace(pre_gst=send_time < gst),
                stream, np.arange(1), np.array([len(edges)]),
            )
            assert [float(v) for v in got] == expected


def test_sample_round_accepts_payload_triples():
    """Extra tuple items are ignored, so schedulers pass records directly."""
    batched, serial = make_network(seed=4), make_network(seed=4)
    triples = [(0, 1, "payload"), (1, 0, "other")]
    assert batched.sample_round(0.0, triples) == [
        serial.transit_time(0.0, 0, 1),
        serial.transit_time(0.0, 1, 0),
    ]


# -------------------------------------------------- StreamSet edge cases


def test_stream_set_zero_length_block_consumes_nothing():
    """block(rows, 0) is a no-op on the stream."""
    from repro.utils.accel import StreamSet, get_numpy

    if get_numpy() is None:
        pytest.skip("StreamSet needs numpy")
    reference = random.Random(17)
    rng = StreamSet(get_numpy(), [17])
    assert list(rng.block([0], 0)[0]) == []
    assert [float(v) for v in rng.block([0], 3)[0]] == [
        reference.random() for _ in range(3)
    ]
    assert list(rng.block([0], 0)[0]) == []
    assert [float(v) for v in rng.block([0], 4)[0]] == [
        reference.random() for _ in range(4)
    ]
