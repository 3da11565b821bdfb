"""The columnar-state tier's timed mask producer against the scalar oracle.

:meth:`~repro.engine.batch.columnar_state.CellProgram._deliver` settles a
drawing timed round for every live run at once: each run's loss coins from
its own policy stream, stacked; each run's latency block from its own
network stream, concatenated and tested against the round deadline in one
compare; the ``(live, sent)`` edge mask scattered into ``(B, n, n)``.  Each
cell below runs at B = 8 on that producer and must give the scalar
oracle's rows byte for byte, while a spy on the producer proves the cell
reached the case it is here for.  The last test is the mutation the suite
must catch: every run's transits drawn from its own stream but joined in
reverse run order.

The cutoff tests pin the rounds that draw latencies at all, on both tiers:
those where ``NetworkSpec.arrives`` of the round's start is ``None``, and no
network stream when there is no such round — float edges and the δ clamp
included.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import List, NamedTuple

import pytest

from repro.campaigns import BUILTIN_CAMPAIGNS
from repro.campaigns.results import row_to_json
from repro.campaigns.runner import execute_run
from repro.engine.batch import MODE_COLUMNAR_STATE, plan_for_run, run_batch
from repro.engine.batch.columnar_state import CellProgram
from repro.eventsim.network import NetworkSpec, PartialSynchronyNetwork
from repro.observability import Telemetry
from repro.scenarios import CommSpec, ScenarioSpec, get_scenario
from repro.utils.accel import StreamSet, get_numpy

pytestmark = pytest.mark.skipif(
    get_numpy() is None, reason="the columnar-state tier needs numpy"
)

#: Pre-GST rounds 1-4 (Δ = 2.5): uniform latencies, half of them delayed 50x.
CHAOS = NetworkSpec(gst=10.0, pre_gst_delay_prob=0.5, chaos_factor=50.0)

CELLS = {
    # Pre-GST (base, chaos coin) pairs, loss coins in the bad rounds, and
    # runs deciding at different rounds, so the live set shrinks.
    "chaos-flaky": (
        ScenarioSpec(
            name="chaos_flaky",
            comm=CommSpec(
                kind="good-bad", schedule="alternating", good_len=2,
                bad_len=1, bad="drop", drop_prob=0.5,
            ),
            timing=CHAOS,
            max_phases=12,
        ),
        "class-2", (7, 1, 1),
    ),
    # Fixed latency: constant post-GST transits draw nothing, so a good
    # round delivers every edge; at 90 % loss some run admits no edge.
    "deaf-fixed": (
        ScenarioSpec(
            name="deaf_fixed",
            comm=CommSpec(
                kind="good-bad", schedule="alternating", good_len=1,
                bad_len=2, bad="drop", drop_prob=0.9,
            ),
            timing=NetworkSpec(kind="fixed", gst=5.0),
            max_phases=6,
        ),
        "class-2", (7, 1, 1),
    ),
    "class-3-fake-history": (
        ScenarioSpec(
            name="chaos_fake_history",
            byzantine=("fake-history-liar",),
            comm=CommSpec(kind="lossy", drop_prob=0.3),
            timing=CHAOS,
            max_phases=8,
        ),
        "class-3", (9, 1, 1),
    ),
    "class-3-adaptive": (
        ScenarioSpec(
            name="chaos_adaptive",
            byzantine=("adaptive-liar",),
            comm=CommSpec(kind="lossy", drop_prob=0.3),
            timing=CHAOS,
            max_phases=8,
        ),
        "class-3", (9, 1, 1),
    ),
}
#: The cells the producer tests above run on.
PRODUCER = sorted(CELLS)


def _pbft(name, comm=CommSpec(kind="lossy", drop_prob=0.3), **timing):
    """A pbft cell with an equivocator, as in ``latency-gst``; lossy, so
    that it stays seed-dependent when no latency can miss."""
    return (
        ScenarioSpec(name=name, byzantine=("equivocator",), comm=comm,
                     timing=NetworkSpec(**timing), max_phases=6),
        "pbft", (4, 1, 0),
    )


#: cell → the cutoff its timing implies at Δ = 2.5 (``inf``: every round).
CUTOFFS = {
    # The default timing: uniform [0.5, 2] from GST 0, every draw ≤ Δ, so
    # the cell's loss coins come from the policy streams and no network
    # stream is built.
    "default-lossy": ((get_scenario("lossy_channel"), "class-2", (7, 1, 1)), 0),
    # Rounds 1-4 start before GST 10; from round 5 every draw is ≤ δ ≤ Δ.
    "gst-10": (_pbft("gst_10", CommSpec(), gst=10.0, pre_gst_delay_prob=0.85), 4),
    # high = Δ: now + high == deadline in every round, which is on time.
    "high-at-deadline": (_pbft("at_deadline", high=2.5, delta=2.5), 0),
    # One ulp above Δ: late by that ulp in round 1.  From round 2 on the
    # excess rounds away, but the rule is one for every round, so every
    # round draws (and no draw misses).
    "high-ulp-above": (_pbft("ulp_above", high=math.nextafter(2.5, 3.0),
                                 delta=3.0), math.inf),
    # Above Δ by more than rounding hides: every round can miss.
    "high-above": (_pbft("above", high=2.5 + 1e-9, delta=3.0), math.inf),
    # high > Δ, but every draw is clamped to δ = 2 ≤ Δ.
    "clamped": (_pbft("clamped", high=3.2), 0),
}
CELLS.update({name: cell for name, (cell, _cutoff) in CUTOFFS.items()})


class Round(NamedTuple):
    """What the producer settled in one round (``got`` per live run)."""

    number: int
    pre_gst: bool
    coins: bool
    arrives: object
    fixed: bool
    sent: int
    got: List[int]


def _runs(name):
    scenario, algorithm, model = CELLS[name]
    spec = dataclasses.replace(
        BUILTIN_CAMPAIGNS["gauntlet"],
        scenarios=(scenario,), algorithms=(algorithm,), models=(model,),
        engines=("timed",), repetitions=8,
    )
    return list(spec.iter_runs())


@functools.lru_cache(maxsize=None)
def _oracle(name):
    return [row_to_json(execute_run(run)) for run in _runs(name)]


def _run(name, monkeypatch, seen=None):
    """The cell on the columnar-state tier, and the rounds its producer saw.

    ``seen``, when given, gets the seeds of each stream set built under
    ``"streams"`` and the round number of each ragged draw under
    ``"ragged"``."""
    rounds: List[Round] = []
    deliver = CellProgram._deliver
    current = [None]

    def spy(self, rt, streams, live):
        current[0] = rt.number
        mask, got, lost = deliver(self, rt, streams, live)
        fixed = rt.fixed is not None
        rounds.append(
            Round(
                rt.number, rt.pre_gst, rt.use_coins, rt.arrives, fixed, rt.sent,
                [int(got)] * live.size if fixed else [int(g) for g in got],
            )
        )
        return mask, got, lost

    monkeypatch.setattr(CellProgram, "_deliver", spy)
    if seen is not None:
        init, ragged = StreamSet.__init__, StreamSet.ragged

        def counted(self, np, seeds):
            seen["streams"].append(seeds)
            init(self, np, seeds)

        def named(self, rows, counts):
            seen["ragged"].append(current[0])
            return ragged(self, rows, counts)

        monkeypatch.setattr(StreamSet, "__init__", counted)
        monkeypatch.setattr(StreamSet, "ragged", named)
    runs = _runs(name)
    assert plan_for_run(runs[0]).mode == MODE_COLUMNAR_STATE
    telemetry = Telemetry()
    rows = run_batch(runs, telemetry=telemetry)
    assert telemetry.counters["batch.columnar_state_rows"] == len(runs)
    return [row_to_json(row) for row in rows], rounds


@pytest.mark.parametrize("name", PRODUCER)
def test_timed_cell_matches_oracle(name, monkeypatch):
    rows, rounds = _run(name, monkeypatch)
    assert rows == _oracle(name)
    # Every cell pre-GST draws latencies for runs that admitted unequal
    # edge counts, and flips loss coins.
    assert any(r.pre_gst and r.arrives is None and len(set(r.got)) > 1
               for r in rounds)
    assert any(r.coins for r in rounds)
    if name == "chaos-flaky":
        lives = [len(r.got) for r in rounds]
        assert lives == sorted(lives, reverse=True) and lives[-1] < lives[0]
    if name == "deaf-fixed":
        # A coin round in which one run admits nothing and another does
        # (post-GST every admitted edge arrives, so got = admitted) ...
        assert any(r.coins and r.arrives is True and min(r.got) == 0 < max(r.got)
                   for r in rounds)
        # ... and post-GST good rounds that deliver every edge.
        assert any(r.fixed and not r.pre_gst and r.got[0] == r.sent
                   for r in rounds)


def test_reversed_transit_blocks_are_caught(monkeypatch):
    """Mutation: each run draws its own latency block, but the blocks are
    joined last run first — run *i* then reads run *L-1-i*'s transits."""
    np = get_numpy()
    transits = CellProgram._transits

    def reversed_blocks(self, rt, network, live, counts):
        blocks = [
            transits(self, rt, network, live[i : i + 1], counts[i : i + 1])
            for i in range(live.size)
        ]
        return np.concatenate(blocks[::-1])

    monkeypatch.setattr(CellProgram, "_transits", reversed_blocks)
    rows, _rounds = _run("chaos-flaky", monkeypatch)
    assert rows != _oracle("chaos-flaky")


@pytest.mark.parametrize("name", sorted(CUTOFFS))
def test_latencies_are_drawn_up_to_the_cutoff_only(name, monkeypatch):
    cutoff = CUTOFFS[name][1]
    seen: dict = {"streams": [], "ragged": []}
    rows, rounds = _run(name, monkeypatch, seen)
    assert rows == _oracle(name)
    drawing = {r.number for r in rounds if r.number <= cutoff}
    assert set(seen["ragged"]) == drawing
    # The policy streams, and the network streams only if some round draws.
    assert len(seen["streams"]) == 1 + (cutoff > 0)
    assert all((r.arrives is None) == (r.number in drawing) for r in rounds)
    assert all(r.arrives is True for r in rounds if r.number > cutoff)
    # The scalar sweep samples in exactly the same rounds.
    sampled, sample_round = set(), PartialSynchronyNetwork.sample_round

    def spy(self, now, edges):
        sampled.add(now)
        return sample_round(self, now, edges)

    monkeypatch.setattr(PartialSynchronyNetwork, "sample_round", spy)
    assert [row_to_json(execute_run(run)) for run in _runs(name)] == rows
    starts = [0.0]
    for _ in rounds:
        starts.append(starts[-1] + CELLS[name][0].timing.round_duration)
    assert {starts.index(now) + 1 for now in sampled} == drawing


def test_early_cutoff_is_caught(monkeypatch):
    """Mutation: the shared deadline rule settles round 4, one round before
    GST, so its pre-GST messages, most of them delayed 50x, all arrive —
    on both tiers alike.  Only the heap path, which draws every latency
    and never reads the rule, sees it."""
    monkeypatch.setenv("REPRO_SLOW_SCHEDULER", "1")
    heap = [row_to_json(execute_run(run)) for run in _runs("gst-10")]
    assert heap == _oracle("gst-10")
    monkeypatch.delenv("REPRO_SLOW_SCHEDULER")
    arrives = NetworkSpec.arrives
    monkeypatch.setattr(NetworkSpec, "arrives",
                        lambda self, now: arrives(self, now + self.round_duration))
    rows, _rounds = _run("gst-10", monkeypatch)
    assert rows != heap
    assert [row_to_json(execute_run(run)) for run in _runs("gst-10")] == rows
