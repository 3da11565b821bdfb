"""The paper's claims, each written once as a named, measured check.

A :class:`Claim` names what it reproduces — Table 1, Figures 1–3, Theorems
2–4, the §5 instances, §2.2's Pcons cost, §6's randomization, the §3.1
switches, the latency and message shapes — and its function returns the
measured figure and whether the claim holds.  Run as a script, every claim
prints ``ok`` / ``MISS``, name, section and figure, and the exit status is
1 on any miss; a claim that raises is a miss showing its message::

    PYTHONPATH=src python benchmarks/paper.py

``benchmarks/test_paper.py`` runs each claim as one tier-1 test.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from repro.algorithms import (build_ben_or, build_chandra_toueg, build_fab_paxos,  # noqa: E402
                              build_mqb, build_one_third_rule, build_paxos, build_pbft)
from repro.algorithms.one_third_rule import (OriginalOneThirdRuleProcess,  # noqa: E402
                                             one_third_rule_threshold)
from repro.campaigns import CampaignSpec, run_campaign, summarize  # noqa: E402
from repro.campaigns.presets import BYZANTINE_SCENARIOS  # noqa: E402
from repro.core.classification import AlgorithmClass, build_class_parameters  # noqa: E402
from repro.core.flv_class1 import FLVClass1  # noqa: E402
from repro.core.flv_class2 import FLVClass2, survivors  # noqa: E402
from repro.core.flv_class3 import FLVClass3  # noqa: E402
from repro.core.flv_variants import FaBPaxosFLV, PaxosFLV  # noqa: E402
from repro.core.parameters import GenericConsensusConfig, ParameterError  # noqa: E402
from repro.core.process import RoundStructure  # noqa: E402
from repro.core.randomized import check_randomizable  # noqa: E402
from repro.core.types import FaultModel, RoundInfo, RoundKind, SelectionMessage  # noqa: E402
from repro.engine import (ExecutionKernel, LockstepScheduler, TimedScheduler,  # noqa: E402
                          build_instance, run_instance)
from repro.eventsim import NetworkSpec  # noqa: E402
from repro.network import PconsStackScheduler, SignatureFreeCoordinatorEcho  # noqa: E402
from repro.rounds.policies import random_drop_behavior  # noqa: E402
from repro.rounds.schedule import GoodBadSchedule  # noqa: E402
from repro.scenarios import CommSpec, ScenarioSpec, compile_scenario, run_scenario  # noqa: E402
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE  # noqa: E402


@dataclass(frozen=True)
class Claim:
    name: str
    section: str
    #: Returns ``(measured figure, holds)``.
    measure: Callable[[], Tuple[object, bool]]


CLAIMS: List[Claim] = []


def claim(section: str, cases: Optional[Dict[str, tuple]] = None):
    """Register the function as one claim per ``name: args`` case, or as itself."""

    def register(function):
        named = cases or {function.__name__.replace("_", "-"): ()}
        for name, args in named.items():
            CLAIMS.append(Claim(name, section, partial(function, *args)))
        return function

    return register


def raises(error, call, *args, **kwargs) -> bool:
    try:
        call(*args, **kwargs)
    except error:
        return True
    return False


def split(processes) -> dict:
    """The split proposals ``v0`` / ``v1`` of ``processes``."""
    return {pid: f"v{pid % 2}" for pid in processes}


def decided(outcome) -> bool:
    return outcome.agreement_holds and outcome.all_correct_decided


def lockstep(params, values, scheduler=None, *, byzantine=None, config=None, **run):
    return run_instance(build_instance(params, values, byzantine=byzantine, config=config),
                        scheduler or LockstepScheduler(), **run)


def lossy_until(good_from: int, seed: int) -> LockstepScheduler:
    """Each honest-bound message is lost with probability ½ until ``good_from``."""
    return LockstepScheduler(
        (GoodBadSchedule.good_after(good_from), random_drop_behavior(random.Random(seed))))


def wire_history(outcome, phase: int, rnd: int) -> int:
    """History entries in an honest process's selection message."""
    process = next(iter(outcome.honest_processes.values()))
    message = process.send(RoundInfo(rnd, phase, RoundKind.SELECTION))
    return len(next(iter(message.values())).history)


TABLE1 = {
    "table1-class1": (AlgorithmClass.CLASS_1, 6, 2, ("vote",)),
    "table1-class2": (AlgorithmClass.CLASS_2, 5, 3, ("vote", "ts")),
    "table1-class3": (AlgorithmClass.CLASS_3, 4, 3, ("vote", "ts", "history")),
}


@claim("Table 1", TABLE1)
def table1_row(cls, min_n, rounds, state):
    """b = 1: minimal n admitted, n − 1 rejected, columns hold, one phase decides."""
    rejected = raises(ParameterError, build_class_parameters, cls, FaultModel(min_n - 1, 1, 0))
    params = build_class_parameters(cls, FaultModel(min_n, 1, 0))
    outcome = lockstep(params, split(range(min_n - 1)), byzantine={min_n - 1: "equivocator"})
    measured = (cls.min_processes(1, 0), params.rounds_per_phase, params.state_footprint,
                outcome.rounds_to_last_decision, outcome.phases_to_last_decision)
    return measured, rejected and decided(outcome) and measured == (min_n, rounds, state, rounds, 1)


@claim("Table 1", {
    f"n-bound-class{cls.value}-b{b}-f{f}": (cls, b, f, n)
    for cls, b, f, n in [
        (AlgorithmClass.CLASS_1, 2, 0, 11), (AlgorithmClass.CLASS_1, 0, 2, 7),
        (AlgorithmClass.CLASS_2, 2, 0, 9), (AlgorithmClass.CLASS_2, 0, 2, 5),
        (AlgorithmClass.CLASS_3, 2, 0, 7), (AlgorithmClass.CLASS_3, 0, 2, 5),
    ]
})
def n_bound(cls, b, f, expected):
    """The n column generalizes: n > 5b+3f / 4b+2f / 3b+2f."""
    n = cls.min_processes(b, f)
    return n, n == expected


@claim("Table 1")
def table1_benign_collapse():
    """With b = 0 classes 2 and 3 coincide: same decisions at n = 2f + 1."""
    out2, out3 = (lockstep(build_class_parameters(cls, FaultModel(3, 0, 1)), dict(enumerate("abc")))
                  for cls in (AlgorithmClass.CLASS_2, AlgorithmClass.CLASS_3))
    rounds = (out2.rounds_to_last_decision, out3.rounds_to_last_decision)
    return rounds, out2.decided_values == out3.decided_values and rounds == (3, 3)


@claim("Table 1")
def table1_state_footprint():
    """The process-state column, read off each class's process state."""
    found = {}
    for name, (cls, min_n, _rounds, _state) in TABLE1.items():
        params = build_class_parameters(cls, FaultModel(min_n, 1, 0))
        needs = params.flv.requirements
        process = next(iter(build_instance(params, split(range(min_n))).processes.values()))
        found[name] = process.state.footprint(needs.uses_ts, needs.uses_history)
    return found, all(found[name] == TABLE1[name][3] for name in TABLE1)


@claim("Theorems 2-4")
def liveness_bounds():
    """At minimal n the lowest live TD is just above (n + 3b + f)/2, 3b + f, 2b + f."""
    lowest, live = [], True
    for cls, flv in zip(AlgorithmClass, (FLVClass1, FLVClass2, FLVClass3)):
        model = FaultModel(cls.min_processes(1, 0), 1, 0)
        live = live and build_class_parameters(cls, model).flv.satisfies_liveness_bound()
        lowest.append(min(td for td in range(1, model.n + 1)
                          if flv(model, td).satisfies_liveness_bound()))
    return lowest, live and lowest == [(6 + 3) // 2 + 1, 3 + 1, 2 + 1]


def vote(value, ts=0, history=None):
    pairs = {(value, ts)} if history is None else history
    return SelectionMessage(value, ts, frozenset(pairs), frozenset())


#: Each figure's FLV, its vector and the size above which it must expose v1.
#: Figure 1 (n=6, b=1, TD=5): four locked votes v1, two stray v2; 2(n − TD + b).
#: Figure 2 (n=5, b=1, TD=4): three locked ⟨v1, 3⟩, an honest laggard ⟨v2, 1⟩,
#: a Byzantine ⟨v2, 10⁶⟩; n − TD + 2b.  Figure 3 (n=4, b=1, TD=3): two
#: certified ⟨v1, 2⟩, a laggard ⟨v2, 1⟩, a forged ⟨v2, 9⟩; no bar.
FIGURES = {
    1: (FLVClass1(FaultModel(6, 1, 0), 5), [vote("v1")] * 4 + [vote("v2")] * 2, 4),
    2: (FLVClass2(FaultModel(5, 1, 0), 4),
        [vote("v1", 3)] * 3 + [vote("v2", 1), vote("v2", 10**6)], 3),
    3: (FLVClass3(FaultModel(4, 1, 0), 3),
        [vote("v1", 2, {("v1", 0), ("v1", 2)})] * 2
        + [vote("v2", 1, {("v2", 0), ("v2", 1)}), vote("v2", 9, {("v2", 0), ("v2", 9)})], None),
}


@claim("Figures 1-3", {f"fig{fig}-locked-value-safe": (fig,) for fig in FIGURES})
def locked_value_safe(fig):
    """Every subset of the vector answers the locked v1 or null; v1 above the bar."""
    flv, pool, bar = FIGURES[fig]
    subsets = [list(s) for size in range(len(pool) + 1) for s in itertools.combinations(pool, size)]
    unsafe = sum(
        result not in ("v1", NULL_VALUE) or (len(vector) > (bar or len(pool)) and result != "v1")
        for vector in subsets
        for result in [flv.evaluate(vector)]
    )
    return f"{unsafe} of {len(subsets)} subsets unsafe", unsafe == 0


@claim("Figures 1-3", {f"fig{fig}-full-vector": (fig,) for fig in FIGURES})
def full_vector(fig):
    flv, pool, _bar = FIGURES[fig]
    result = flv.evaluate(pool)
    return result, result == "v1"


@claim("Figure 1")
def fig1_threshold_tight():
    """Exactly 2(n − TD + b) = 4 messages may legitimately answer null."""
    result = FIGURES[1][0].evaluate([vote("v1")] * 2 + [vote("v2")] * 2)
    return result, result is NULL_VALUE


@claim("Figure 2")
def fig2_line2_filters_the_lie():
    """Line 1 admits the Byzantine timestamp; line 2's > b support kills it."""
    flv, pool, _bar = FIGURES[2]
    admitted = vote("v2", 10**6) in survivors(pool, 5 - 4 + 1)
    result = flv.evaluate(pool)
    return f"lie admitted by line 1: {admitted}; FLV {result}", admitted and result == "v1"


@claim("Figure 3")
def fig3_forged_history_needs_b_plus_1():
    """Two forged certificates (> b) would put v2 in correctVotes: why n > 3b."""
    forged = [vote("v2", 9, {("v2", 9)})] * 2
    result = FIGURES[3][0].evaluate([vote("v1", 2)] * 2 + forged)
    return result, result is not NULL_VALUE


@claim("§3.1")
def phase_kinds():
    """Selection (+ validation if FLAG = φ) + decision; skipping drops phase 1's selection."""
    kinds = {}
    for cls in (AlgorithmClass.CLASS_1, AlgorithmClass.CLASS_3):
        flag = build_class_parameters(cls, FaultModel(cls.min_processes(1, 0), 1, 0)).flag
        structure = RoundStructure(flag, skip_first_selection=True)
        kinds[f"class{cls.value}"] = [len(structure.kinds_of_phase(p)) for p in (1, 2)]
    return kinds, kinds == {"class1": [1, 2], "class3": [2, 3]}


@claim("§4.2")
def selector_validity():
    """Suggestions exceed b (PBFT: 3b + 2f); only benign leader selectors suggest one."""
    singletons, invalid = [], 0
    for builder, n in ((build_one_third_rule, 4), (build_fab_paxos, 6), (build_mqb, 5),
                       (build_paxos, 3), (build_chandra_toueg, 3), (build_pbft, 4)):
        spec = builder(n)
        selector = spec.parameters.selector
        singletons += [spec.name] if selector.is_singleton else []
        for pid, phase in itertools.product(range(n), range(1, 4)):
            suggestion = selector(pid, phase)
            invalid += not selector.satisfies_validity(suggestion) or (
                builder is build_pbft and not selector.satisfies_strong_validity(suggestion))
    return f"singletons {singletons}, {invalid} invalid", (
        sorted(singletons) == ["Chandra-Toueg", "Paxos"] and invalid == 0)


def instance_decides(builder, n, values, byzantine, rounds, phases):
    """``builder(n)`` decides, in ``rounds`` rounds / ``phases`` phases if given."""
    outcome = builder(n).run(values, byzantine=byzantine)
    measured = (outcome.rounds_to_last_decision, outcome.phases_to_last_decision)
    return f"round {measured[0]}, phase {measured[1]}", decided(outcome) and all(
        want in (None, got) for want, got in zip((rounds, phases), measured))


claim("§5.1", {
    "otr-decides-in-2-rounds": (build_one_third_rule, 4, dict(enumerate("aabb")), {}, 2, None),
    "fab-decides-in-2-rounds": (build_fab_paxos, 6, split(range(5)), {5: "equivocator"}, 2, None),
})(instance_decides)
claim("§5.3", {
    "paxos-decides-in-one-phase": (build_paxos, 3, dict(enumerate("abc")), {}, None, 1),
    "chandra-toueg-decides": (build_chandra_toueg, 3, dict(enumerate("abc")), {}, None, None),
    "pbft-decides-at-3b-plus-1": (build_pbft, 4, dict(enumerate("aba")), {3: "fake-history-liar"},
                                  None, 1),
})(instance_decides)


@claim("§5.1")
def otr_selects_beyond_algorithm_5():
    """4 messages at n = 6 are not > 2n/3: Algorithm 5 never selects, the FLV does."""
    model = FaultModel(6, 0, 1)
    result = FLVClass1(model, one_third_rule_threshold(model)).evaluate([vote("v")] * 4)
    return result, 3 * 4 <= 2 * model.n and result == "v"


@claim("§5.1")
def otr_algorithm_5_agrees():
    """The literal Algorithm 5 and the instantiation decide alike under synchrony."""
    model, values = FaultModel(4, 0, 1), {0: "a", 1: "a", 2: "a", 3: "b"}
    processes = {pid: OriginalOneThirdRuleProcess(pid, values[pid], model) for pid in range(4)}
    ExecutionKernel(model, processes, LockstepScheduler(),
                    lambda r: RoundInfo(r, r, RoundKind.SELECTION)).run(3)
    original = {p.decided for p in processes.values()}
    instantiated = build_one_third_rule(4).run(values).decided_values
    return (original, instantiated), original == instantiated == {"a"}


@claim("§5.1")
def fab_footnote_13():
    """n = 7, b = 1: the original needs ⌈(n − b + 1)/2⌉ = 4 matching votes; 3 do here."""
    model = FaultModel(7, 1, 0)
    original = -((model.n - model.b + 1) // -2)
    result = FaBPaxosFLV(model).evaluate([vote("v")] * 3 + [vote("w")] * 2)
    return (original, result), original == 4 and result == "v"


@claim("§5.1")
def fab_rejects_n_5b():
    rejected = raises(ValueError, build_fab_paxos, 5, b=1)
    return f"n=5, b=1 rejected: {rejected}", rejected


@claim("§5.2")
def mqb_decides_at_4b_plus_1():
    """The headline: n = 4b + 1 Byzantine consensus without a history."""
    spec = build_mqb(5)
    outcome = spec.run(split(range(4)), byzantine={4: "high-ts-liar"})
    footprint = spec.parameters.state_footprint
    return footprint, decided(outcome) and footprint == ("vote", "ts")


@claim("§5.2")
def mqb_ships_no_history():
    """After lossy phases MQB's selection messages carry no history; PBFT's do."""
    found = {}
    for builder, n in ((build_mqb, 5), (build_pbft, 4)):
        outcome = builder(n).run(
            split(range(n - 1)), byzantine={n - 1: "equivocator"}, max_phases=10,
            good_bad=(GoodBadSchedule.good_after(10), random_drop_behavior(random.Random(0))))
        found[builder(n).name] = wire_history(outcome, 34, 100)
    return found, found["MQB"] == 0 and found["PBFT"] >= 1


@claim("§5.3")
def paxos_pbft_share_class3_flv():
    """On benign vectors Paxos's and PBFT's FLVs agree wherever both select."""
    paxos, pbft = PaxosFLV(FaultModel(4, 0, 1)), build_pbft(4).parameters.flv
    vectors = ([vote("x", 2, {("x", 2)})] * 3, [vote("x")] * 3)
    results = [(paxos.evaluate(v), pbft.evaluate(v)) for v in vectors]
    return results, all(
        p == q or ANY_VALUE in (p, q) for p, q in results if NULL_VALUE not in (p, q))


@claim("§5")
def resilience_ladder():
    """n required for b = 1: FaB 6 > MQB 5 > PBFT 4, one less rejected."""
    builders = (build_fab_paxos, build_mqb, build_pbft)
    ladder = [builder(n).parameters.model.n for builder, n in zip(builders, (6, 5, 4))]
    rejected = all(raises(ValueError, builder, n, b=1) for builder, n in zip(builders, (5, 4, 3)))
    return ladder, rejected and ladder == [6, 5, 4]


#: One scenario per strategy of the Byzantine battery, on all ``b`` slots.
BATTERY = tuple(ScenarioSpec(byzantine=(name,)) for name in BYZANTINE_SCENARIOS)
BOUND_FACTOR = {AlgorithmClass.CLASS_1: 5, AlgorithmClass.CLASS_2: 4, AlgorithmClass.CLASS_3: 3}


def alive(row) -> bool:
    """An admitted row that kept agreement and terminated."""
    return row["status"] == "ok" and bool(row["agreement"] and row["termination"])


@claim("Table 1", {
    f"resilience-class{cls.value}-b{b}": (cls, b) for b in (1, 2) for cls in AlgorithmClass
})
def resilience_sweep(cls, b):
    """Above n > factor·b every cell survives the battery; below, it is rejected."""
    factor = BOUND_FACTOR[cls]
    rows = run_campaign(CampaignSpec(
        name=f"resilience-class{cls.value}-b{b}", algorithms=(f"class-{cls.value}",),
        models=tuple((n, b, 0) for n in range(max(b + 1, factor * b - 1), factor * b + 3)),
        scenarios=BATTERY, max_phases=8))
    wrong = [f"n={row['n']} {row['fault']}" for row in rows
             if not (alive(row) if row["n"] > factor * b else row["status"] == "inadmissible")]
    return f"{len(rows)} cells, wrong: {wrong}", not wrong


@claim("§5.2")
def mqb_exists_in_the_gap():
    """Class 2 fills 4b < n ≤ 5b at f = 0, where class 1 is rejected."""
    rows = run_campaign(CampaignSpec(
        name="mqb-gap", algorithms=("class-2", "class-1"), models=((5, 1, 0),),
        scenarios=BATTERY, max_phases=8))
    wrong = [f"{row['algorithm']} {row['fault']}" for row in rows if not (
        alive(row) if row["algorithm"] == "class-2" else row["status"] == "inadmissible")]
    return f"{len(rows)} cells, wrong: {wrong}", len(rows) == 2 * len(BATTERY) and not wrong


@claim("Table 1")
def benign_frontier():
    """b = 0: classes 2/3 live at n > 2f, class 1 at n > 3f."""
    rows = run_campaign(CampaignSpec(
        name="benign-frontier", algorithms=("class-2", "class-1"),
        models=((4, 0, 1), (3, 0, 1), (2, 0, 1)),
        scenarios=(ScenarioSpec(name="crash-f", crashes=-1),), max_phases=12))
    verdict = {(row["algorithm"], row["n"]): (row["status"], row["termination"]) for row in rows}
    measured = {f"{algorithm} n={n}": verdict[algorithm, n] for algorithm, n in
                (("class-2", 3), ("class-2", 2), ("class-1", 4), ("class-1", 3))}
    return measured, list(measured.values()) == [
        ("ok", True), ("inadmissible", None), ("ok", True), ("inadmissible", None)]


def pcons(params, values, engine):
    """One metrics-mode run of a one-equivocator scenario compiled onto an
    implemented-``Pcons`` engine: ``(outcome, its scheduler)``."""
    compiled = compile_scenario(ScenarioSpec(byzantine=("equivocator",)), params.model, engine)
    return lockstep(params, values, compiled.scheduler, byzantine=compiled.byzantine,
                    observe="metrics"), compiled.scheduler


@claim("§2.2", {
    "pcons-authenticated-round-cost": ("pcons-auth", 2),
    "pcons-signature-free-round-cost": ("pcons-sigfree", 3),
})
def pcons_round_cost(engine, extra):
    """One phase costs the Pcons implementation's rounds + validation + decision."""
    params = build_pbft(4).parameters
    outcome, stack = pcons(params, split(range(3)), engine)
    used = stack.micro_rounds
    return used, decided(outcome) and used == extra + 2 and (1, True) in stack.pcons_observations


@claim("§2.2")
def pcons_signature_free_costs_more():
    params = build_mqb(5).parameters
    auth, free = (pcons(params, split(range(4)), engine)[1]
                  for engine in ("pcons-auth", "pcons-sigfree"))
    return (f"messages {auth.micro_messages} vs {free.micro_messages}, "
            f"rounds {auth.micro_rounds} vs {free.micro_rounds}"), (
        free.micro_messages > auth.micro_messages and free.micro_rounds > auth.micro_rounds)


@claim("§2.2")
def pcons_byzantine_coordinator_recovers():
    """A Byzantine phase-1 coordinator delays but never corrupts: process 0
    is no scenario placement, so the scheduler is built here."""
    params = build_pbft(4).parameters
    stack = PconsStackScheduler(SignatureFreeCoordinatorEcho(params.model))
    outcome = lockstep(params, split((1, 2, 3)), stack, byzantine={0: "equivocator"},
                       observe="metrics", max_phases=6)
    return f"{stack.micro_rounds} micro-rounds", decided(outcome)


ROUND = 2.5


def synchronous(spec, values, byzantine=None):
    """One metrics-mode timed run, synchronous from the start (GST 0)."""
    return run_instance(build_instance(spec.parameters, values, byzantine=byzantine),
                        TimedScheduler(NetworkSpec(round_duration=ROUND).build(7)),
                        observe="metrics")


@claim("Latency", {
    "latency-fab-paxos": (build_fab_paxos, 6, 2),
    "latency-mqb": (build_mqb, 5, 3),
    "latency-pbft": (build_pbft, 4, 3),
    "latency-paxos": (build_paxos, 3, 3),
})
def latency_fault_free(builder, n, rounds):
    """Fault-free and synchronous: one phase, decided after its last round."""
    outcome = synchronous(builder(n), split(range(n)))
    time = outcome.last_decision_time
    return time, decided(outcome) and outcome.rounds_executed == rounds and math.isclose(
        time, rounds * ROUND, rel_tol=1e-6, abs_tol=1e-12)


@claim("Latency")
def latency_class1_beats_class3():
    times = tuple(synchronous(builder(n), {pid: "v" for pid in range(n)}).last_decision_time
                  for builder, n in ((build_fab_paxos, 6), (build_pbft, 4)))
    return times, times[0] < times[1]


@claim("Latency")
def latency_gst_curve():
    """PBFT's mean decision time (5 seeds) rises with the GST, a few phases after it."""
    spec = CampaignSpec(
        name="gst-sensitivity", algorithms=("pbft",), models=((4, 1, 0),), engines=("timed",),
        scenarios=tuple(ScenarioSpec(byzantine=("equivocator",), timing=NetworkSpec(
            gst=gst, pre_gst_delay_prob=0.85, round_duration=ROUND)) for gst in (0.0, 15.0, 30.0)),
        repetitions=5, seed=11, max_phases=40)
    rows = run_campaign(spec)
    means = {summary.key[0]: summary.mean_latency
             for summary in summarize(rows, group_keys=("network",))}
    times = [means[scenario.describe_network()] for scenario in spec.scenarios]
    return times, all(map(alive, rows)) and times[0] < times[1] < times[2] < 30.0 + 6 * 3 * ROUND


@claim("Latency")
def latency_attack_does_not_slow_good_phases():
    times = (synchronous(build_pbft(4), split(range(4))).last_decision_time,
             synchronous(build_pbft(4), split(range(3)), {3: "equivocator"}).last_decision_time)
    return times, times[0] == times[1]


def messages(builder, n, byzantine=None):
    """A fault-free (but for ``byzantine``) run of ``builder(n)``."""
    byzantine = byzantine or {}
    return builder(n).run(split(p for p in range(n) if p not in byzantine), byzantine=byzantine)


@claim("Messages", {
    "messages-class1-phase": (build_fab_paxos, 6, 2 * 6 * 6),
    "messages-class3-phase": (build_pbft, 4, 3 * 4 * 4),
    "messages-leader-based": (build_paxos, 5, 5 + 5 + 5 * 5),
})
def messages_per_phase(builder, n, expected):
    """Under Π every round is n²; Paxos sends n to the leader, n back, n² to decide."""
    outcome = messages(builder, n)
    return outcome.messages_sent, decided(outcome) and outcome.messages_sent == expected


@claim("Messages")
def messages_mqb_carry_no_history():
    mqb = messages(build_mqb, 5, {4: "equivocator"})
    pbft = messages(build_pbft, 4, {3: "equivocator"})
    found = {"mqb": wire_history(mqb, 2, 4), "pbft": wire_history(pbft, 2, 4)}
    return found, decided(mqb) and decided(pbft) and found["mqb"] == 0 and found["pbft"] >= 1


@claim("Messages")
def messages_per_round():
    outcome = messages(build_pbft, 4)
    per_round = [record.sent_count for record in outcome.trace.records]
    return per_round, decided(outcome) and per_round == [16, 16, 16]


PREL = CommSpec(kind="async-prel")


def prel(spec, values, seed, *, byzantine=(), max_phases=200):
    """One seeded run of ``spec`` under the Prel-only adversary."""
    return run_scenario(ScenarioSpec(byzantine=byzantine, comm=PREL), spec.parameters, rng=seed,
                        initial_values=values, config=spec.config, max_phases=max_phases)


@claim("§6", {
    "ben-or-benign-terminates": (3, 0, {0: 1, 1: 0, 2: 1}, (), 0),
    "ben-or-byzantine-terminates": (8, 1, {pid: pid % 2 for pid in range(7)}, ("equivocator",), 1),
})
def ben_or_terminates(n, b, values, byzantine, seed):
    outcome = prel(build_ben_or(n, b=b), values, seed, byzantine=byzantine, max_phases=400)
    return outcome.phases_to_last_decision, decided(outcome)


@claim("§6")
def ben_or_phase_spread():
    """Split inputs at n = 3, 40 seeds: all decide, in 1 to several phases, mean < 10."""
    outcomes = [prel(build_ben_or(3), {0: 1, 1: 0, 2: 1}, seed, max_phases=400)
                for seed in range(40)]
    phases = [outcome.phases_to_last_decision for outcome in outcomes]
    mean = statistics.mean(phases)
    return f"mean {mean:.2f}, max {max(phases)}", (
        all(map(decided, outcomes)) and min(phases) == 1 < max(phases) and mean < 10)


@claim("§6")
def ben_or_unanimous_decides_in_phase_1():
    outcomes = [prel(build_ben_or(3), {0: 1, 1: 1, 2: 1}, seed) for seed in range(10)]
    phases = {outcome.phases_to_last_decision for outcome in outcomes}
    return phases, phases == {1} and all(o.decided_values == {1} for o in outcomes)


@claim("§6")
def class3_not_randomizable():
    """Algorithm 4 fails the strengthened FLV-liveness, and a run refuses it."""
    params = build_class_parameters(AlgorithmClass.CLASS_3, FaultModel(4, 1, 0))
    verdict = check_randomizable(params)
    try:
        run_scenario(ScenarioSpec(comm=PREL), params, rng=0, config=build_ben_or(3).config)
    except ValueError as exc:
        return verdict, not verdict and "FLV-liveness" in str(exc)
    return "a randomized class-3 run was not refused", False


@claim("§6")
def classes_1_2_randomizable():
    verdicts = [check_randomizable(build_class_parameters(cls, FaultModel(n, 1, 0)))
                for cls, n in ((AlgorithmClass.CLASS_1, 6), (AlgorithmClass.CLASS_2, 5))]
    return verdicts, verdicts == [True, True]


PBFT = build_class_parameters(AlgorithmClass.CLASS_3, FaultModel(4, 1, 0))


@claim("§3.1")
def skip_first_selection_saves_a_round():
    plain, skipped = (
        lockstep(PBFT, {pid: "same" for pid in range(4)},
                 config=GenericConsensusConfig(skip_first_selection=skip))
        for skip in (False, True))
    rounds = (plain.rounds_to_last_decision, skipped.rounds_to_last_decision)
    return rounds, decided(skipped) and rounds[1] == rounds[0] - 1


@claim("§3.1")
def static_selector_is_transparent():
    with_opt, without = (
        lockstep(PBFT, split(range(3)), byzantine={3: "equivocator"},
                 config=GenericConsensusConfig(static_selector_optimization=opt))
        for opt in (True, False))
    return with_opt.rounds_to_last_decision, (
        with_opt.decided_values == without.decided_values
        and with_opt.rounds_to_last_decision == without.rounds_to_last_decision)


@claim("Algorithm 1")
def line_26_variant_same_decisions():
    """Logging validated pairs never changes a decision (3 strategies × 3 seeds)."""
    differ = []
    for strategy, seed in itertools.product(
            ("equivocator", "high-ts-liar", "fake-history-liar"), range(3)):
        paper, variant = (
            lockstep(PBFT, split(range(3)), lossy_until(7, seed), byzantine={3: strategy},
                     config=config, max_phases=8)
            for config in (None, GenericConsensusConfig(record_validation_in_history=True)))
        if not (paper.agreement_holds and variant.agreement_holds
                and paper.decided_values == variant.decided_values):
            differ.append((strategy, seed))
    return f"differ: {differ}", not differ


@claim("footnote 5")
def bounded_history_caps_state():
    """Truncating the history to 2 entries caps state while synchrony holds."""
    unbounded, bounded = (
        lockstep(PBFT, split(range(3)), lossy_until(13, 2), byzantine={3: "equivocator"},
                 config=config, max_phases=12)
        for config in (None, GenericConsensusConfig(max_history_size=2)))
    big, small = (max(len(p.state.history) for p in o.honest_processes.values())
                  for o in (unbounded, bounded))
    return (big, small), small <= 2 and decided(bounded)


def check(measure: Callable[[], Tuple[object, bool]]) -> Tuple[str, bool]:
    """``(figure, holds)``; a claim or gate that raises is a miss showing its message."""
    try:
        figure, holds = measure()
    except Exception as exc:  # any failure is a miss
        first_line = str(exc).partition("\n")[0]
        return f"raised {type(exc).__name__}: {first_line}", False
    return str(figure), bool(holds)


def main() -> int:
    missed = 0
    for each in CLAIMS:
        figure, holds = check(each.measure)
        missed += not holds
        print(f"{'ok' if holds else 'MISS':<4}  {each.name:<42} {each.section:<12} {figure}",
              flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
