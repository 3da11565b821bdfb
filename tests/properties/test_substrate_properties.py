"""Property-based tests of the simulation substrates themselves."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.process import RoundStructure
from repro.core.types import FaultModel, Flag, RoundKind
from repro.engine.scheduler import LockstepScheduler, PrelScheduler
from repro.network.wic import (
    AuthenticatedCoordinatorEcho,
    SignatureFreeCoordinatorEcho,
    WicAdversaryMode,
)
from repro.rounds.base import RunContext
from repro.rounds.policies import (
    deliver_to_byzantine,
    enforce_pcons,
    faithful_delivery,
    partition_behavior,
    random_drop_behavior,
    silent_behavior,
)
from repro.rounds.predicates import check_pcons, check_pgood, check_prel
from repro.rounds.schedule import GoodBadSchedule
from repro.core.types import RoundInfo


# ------------------------------------------------------------- structure


@settings(max_examples=100)
@given(
    flag=st.sampled_from([Flag.ANY, Flag.CURRENT_PHASE]),
    skip=st.booleans(),
    round_number=st.integers(min_value=1, max_value=500),
)
def test_round_structure_is_consistent(flag, skip, round_number):
    """info() round numbers are self-consistent and phases never decrease."""
    structure = RoundStructure(flag, skip_first_selection=skip)
    info = structure.info(round_number)
    assert info.number == round_number
    assert info.phase >= 1
    if round_number > 1:
        previous = structure.info(round_number - 1)
        assert info.phase in (previous.phase, previous.phase + 1)
    # kinds_of_phase agrees with the enumeration of the phase's rounds.
    kinds = structure.kinds_of_phase(info.phase)
    assert info.kind in kinds


@settings(max_examples=50)
@given(
    flag=st.sampled_from([Flag.ANY, Flag.CURRENT_PHASE]),
    skip=st.booleans(),
    phases=st.integers(min_value=1, max_value=40),
)
def test_rounds_for_phases_matches_enumeration(flag, skip, phases):
    structure = RoundStructure(flag, skip_first_selection=skip)
    total = structure.rounds_for_phases(phases)
    assert structure.info(total).phase == phases
    assert structure.info(total).kind is RoundKind.DECISION
    assert structure.info(total + 1).phase == phases + 1


# ------------------------------------------------------------- oracles


@st.composite
def outbound_matrix(draw, n, byzantine=frozenset()):
    """Random per-round traffic.

    Honest senders send one uniform payload (the round model's sending
    function produces a single message per destination set); Byzantine
    senders may equivocate freely.
    """
    senders = draw(st.sets(st.integers(0, n - 1), max_size=n))
    matrix = {}
    for sender in senders:
        dests = draw(st.sets(st.integers(0, n - 1), max_size=n))
        if sender in byzantine:
            matrix[sender] = {
                dest: f"m{sender}:{draw(st.integers(0, 3))}" for dest in dests
            }
        else:
            payload = f"m{sender}:{draw(st.integers(0, 3))}"
            matrix[sender] = {dest: payload for dest in dests}
    return matrix


@settings(max_examples=100)
@given(st.data())
def test_enforce_pcons_always_satisfies_pcons(data):
    n = data.draw(st.integers(min_value=2, max_value=6), label="n")
    b = data.draw(st.integers(min_value=0, max_value=min(1, n - 1)), label="b")
    byz = frozenset({n - 1}) if b else frozenset()
    ctx = RunContext(FaultModel(n, b, 0), byzantine=byz)
    outbound = data.draw(outbound_matrix(n, byzantine=byz), label="outbound")
    matrix = enforce_pcons(outbound, ctx)
    assert check_pcons(outbound, matrix, ctx.correct)


@settings(max_examples=100)
@given(st.data())
def test_faithful_delivery_always_satisfies_pgood(data):
    n = data.draw(st.integers(min_value=2, max_value=6), label="n")
    ctx = RunContext(FaultModel(n, 0, 0))
    outbound = data.draw(outbound_matrix(n), label="outbound")
    matrix = faithful_delivery(outbound)
    assert check_pgood(outbound, matrix, ctx.correct)


@settings(max_examples=50)
@given(seed=st.integers(0, 10**6))
def test_prel_scheduler_always_satisfies_prel(seed):
    model = FaultModel(6, 1, 1)
    ctx = RunContext(model, byzantine=frozenset({5}))
    outbound = {
        s: {d: f"m{s}" for d in range(6)} for s in range(6)
    }
    info = RoundInfo(1, 1, RoundKind.DECISION)
    delivery = PrelScheduler(random.Random(seed)).deliver_round(
        info, outbound, ctx
    )
    assert check_prel(delivery.matrix, ctx.correct, model.n - model.b - model.f)


#: Every bad-round edge rule a scenario compiles to, over a per-example seed.
BAD_RULES = {
    "drop": lambda n, seed: random_drop_behavior(random.Random(seed), 0.5),
    "partition": lambda n, seed: partition_behavior(
        [range(n // 2), range(n // 2, n)]
    ),
    "silence": lambda n, seed: silent_behavior(),
}


@settings(max_examples=200)
@given(st.data())
def test_dropped_is_the_edge_exact_count_of_missing_sent_edges(data):
    """Every lockstep oracle — good / bad round × selection / other round ×
    each edge rule, and ``Prel`` — reports as dropped exactly the sent
    edges its matrix lacks, even where ``Pcons`` injects deliveries."""
    n = data.draw(st.integers(min_value=2, max_value=6), label="n")
    b = data.draw(st.integers(min_value=0, max_value=min(1, n - 1)), label="b")
    f = data.draw(st.integers(min_value=0, max_value=n - 1 - b), label="f")
    byz = frozenset({n - 1}) if b else frozenset()
    model = FaultModel(n, b, f)
    ctx = RunContext(model, byzantine=byz)
    outbound = data.draw(outbound_matrix(n, byzantine=byz), label="outbound")
    kind = data.draw(
        st.sampled_from([RoundKind.SELECTION, RoundKind.DECISION]), label="kind"
    )
    info = RoundInfo(1, 1, kind)
    seed = data.draw(st.integers(0, 10**6), label="seed")
    oracle = data.draw(
        st.sampled_from(["good", "prel", *sorted(BAD_RULES)]), label="oracle"
    )
    if oracle == "prel":
        scheduler = PrelScheduler(random.Random(seed))
    elif oracle == "good":
        scheduler = LockstepScheduler()
    else:
        rule = BAD_RULES[oracle](n, seed)
        scheduler = LockstepScheduler((GoodBadSchedule.never_good(), rule))
    delivery = scheduler.deliver_round(info, outbound, ctx)
    matrix = delivery.matrix
    missing = sum(
        1
        for sender, messages in outbound.items()
        for dest in messages
        if sender not in matrix.get(dest, {})
    )
    assert delivery.dropped == missing
    if oracle == "good":
        predicate = check_pcons if kind is RoundKind.SELECTION else check_pgood
        assert predicate(outbound, matrix, ctx.correct)
    if oracle == "prel":
        keep = n - b - f
        for pid in ctx.correct:
            addressed = sum(1 for m in outbound.values() if pid in m)
            assert len(matrix.get(pid, {})) == min(keep, addressed)


@settings(max_examples=100)
@given(st.data())
def test_no_impersonation_in_any_policy(data):
    """Delivered payloads always originate from the recorded sender."""
    n = data.draw(st.integers(min_value=2, max_value=5), label="n")
    ctx = RunContext(FaultModel(n, 0, 0))
    outbound = data.draw(outbound_matrix(n), label="outbound")
    for build in (faithful_delivery, lambda o: enforce_pcons(o, ctx)):
        matrix = build(outbound)
        for receiver, inbox in matrix.items():
            for sender, payload in inbox.items():
                produced = set(outbound.get(sender, {}).values())
                assert payload in produced


# ------------------------------------------------------------------ wic


@settings(max_examples=40, deadline=None)
@given(
    phase=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from(list(WicAdversaryMode)),
    seed=st.integers(0, 1000),
)
def test_signature_free_echo_never_conflicts(phase, mode, seed):
    """Whatever the coordinator/adversary does, two correct processes never
    accept different payloads for the same sender."""
    model = FaultModel(4, 1, 0)
    ctx = RunContext(model, byzantine=frozenset({3}))
    wic = SignatureFreeCoordinatorEcho(model, adversary_mode=mode)
    rng = random.Random(seed)
    inputs = {pid: f"m{pid}:{rng.randrange(3)}" for pid in range(4)}

    def deliver(outbound):
        matrix = faithful_delivery(outbound)
        deliver_to_byzantine(matrix, outbound, ctx)
        return matrix

    result = wic.execute(phase, inputs, deliver, ctx)
    for sender in range(4):
        accepted = {
            result[pid][sender]
            for pid in ctx.correct
            if sender in result.get(pid, {})
        }
        assert len(accepted) <= 1


@settings(max_examples=40, deadline=None)
@given(
    phase=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from(list(WicAdversaryMode)),
)
def test_authenticated_echo_never_forges(phase, mode):
    """Every accepted entry equals what the sender actually signed."""
    model = FaultModel(4, 1, 0)
    ctx = RunContext(model, byzantine=frozenset({3}))
    wic = AuthenticatedCoordinatorEcho(model, adversary_mode=mode)
    inputs = {pid: f"payload-{pid}" for pid in range(4)}

    def deliver(outbound):
        matrix = faithful_delivery(outbound)
        deliver_to_byzantine(matrix, outbound, ctx)
        return matrix

    result = wic.execute(phase, inputs, deliver, ctx)
    for pid in ctx.correct:
        for sender, payload in result.get(pid, {}).items():
            assert payload == inputs[sender]


@settings(max_examples=30, deadline=None)
@given(phase=st.integers(min_value=1, max_value=4))
def test_correct_coordinator_yields_pcons_vectors(phase):
    """With a correct coordinator both implementations give equal vectors."""
    model = FaultModel(4, 1, 0)
    ctx = RunContext(model, byzantine=frozenset({3}))
    for wic_cls in (AuthenticatedCoordinatorEcho, SignatureFreeCoordinatorEcho):
        wic = wic_cls(model)
        if wic.coordinator(phase) in ctx.byzantine:
            continue
        inputs = {pid: f"m{pid}" for pid in range(4)}

        def deliver(outbound):
            matrix = faithful_delivery(outbound)
            deliver_to_byzantine(matrix, outbound, ctx)
            return matrix

        result = wic.execute(phase, inputs, deliver, ctx)
        vectors = {
            tuple(sorted(result.get(pid, {}).items())) for pid in ctx.correct
        }
        assert len(vectors) == 1
