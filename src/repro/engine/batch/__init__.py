"""Columnar batched execution: whole campaign cells as array programs.

One campaign *cell* is B runs differing only in repetition index and
derived seed.  This package executes a cell as a unit — see
:mod:`repro.engine.batch.plan` for the three execution tiers (replicate /
columnar-state / scalar), :mod:`repro.engine.batch.kernel` for row
production and the demotion discipline, and
:mod:`repro.engine.batch.columnar_state` for the array tier, which runs
the generic algorithm itself as one program over ``(B runs × n
processes)`` state on either engine.

The columnar-state contracts
============================

The columnar-state tier rests on two cell-level encodings, both proven at
template-build time and demoted (never fudged) when unprovable:

* **Value encoding** — a cell's value alphabet is *closed*: honest initial
  values plus every payload its run-invariant Byzantine strategies can
  utter across the round horizon (an ``adaptive-liar`` only repeats what
  it observed, or its fallback).
  :func:`repro.core.columnar.encode_alphabet` assigns each value a small
  int code in :func:`repro.utils.det._sort_key` order, so every
  ``deterministic_choice`` of the algorithm is a plain ``min`` over codes;
  ``-1`` is the paper's ``null``, and the ``?`` (ANY) outcome travels as a
  separate boolean mask.  A value outside the alphabet, or two values
  whose sort keys collide, demotes the cell.

* **Mask contract** — the per-run seed enters the array program **only**
  through ``(B, n, n)`` boolean delivery masks (dest-major:
  ``mask[b, dest, sender]``), produced by mirroring the scalar scheduler
  draw for draw on the run's own streams of the cell's ``StreamSet``
  (next section).  A drawing round is one array step over the live runs,
  never a per-run loop: the runs' coin blocks drawn as one ``(live,
  edges)`` admission mask, their latency blocks concatenated and held
  against the round deadline in one compare, and the edge mask scattered
  into the ``(B, n, n)`` mask with one fancy index; a round that draws
  nothing is delivered once per cell.  Latencies are drawn only up to the
  cell's *cutoff*, the last round in which one can miss its deadline
  (pre-GST, or post-GST where the largest draw, clamped to δ, overshoots
  it in float); every later round delivers what it admits.  Everything else — payloads,
  suggestion sets, validator sets, edge lists, wall-clock windows,
  zero-draw rounds — is a per-cell template shared by all runs.
  Byzantine payloads overlay the honest state per ``(dest, sender)``: the
  timed scheduler pins a Byzantine sender to its first outbound payload in
  every selection round; the lockstep oracle canonicalizes only in *good*
  rounds (to the payload addressed to the lowest-id audience member,
  possibly injecting deliveries the sender never addressed) and delivers
  an equivocator's per-destination payloads raw in lossy/bad ones.  The one piece of per-run adversary state is an
  ``adaptive-liar``'s vote tally, a ``(B, V)`` count array fed by the
  liar's own mask row: its template payloads name two placeholder codes
  (its current minority / majority) that resolve per run.

The per-run RNG-stream contract
===============================

Batch row *b* consumes **exactly the streams of the scalar run with the
same coordinate-derived seed** — never a shared batch stream, never a
re-partitioned one:

* *timed*: the network stream of run *b* is seeded ``seed_b``, and the
  policy/filter stream of run *b* is a second generator also seeded
  ``seed_b`` — precisely the two streams scalar compilation builds (one
  sequence, read at two offsets).  Per round: the bad-round rule's coins
  first (policy stream), then, up to the cutoff, one latency block for
  the run's admitted edges, tested against the round deadline (network
  stream) — the block of run *b* sits at *b*'s place in the live runs'
  concatenation, so the one compare settles every run with its own
  draws.  Only that compare reads the network stream, so a cell whose
  cutoff is 0 never builds it;
* *lockstep*: one policy stream per run, seeded ``seed_b`` — no network
  stream, no deadline.  A bad round of a coin-drawing comm
  (``CommSpec.draws_coins()``: ``lossy``, ``good-bad``/``drop``) draws one
  coin per edge whose receiver is not Byzantine, in the template's
  sender-major, dest-minor order (the order ``filtered_delivery`` asks
  ``random_drop_behavior``'s rule); every other round —
  good ``Pcons``/``Pgood`` rounds, partitions, silence — draws **zero**
  and is delivered once per cell by the real compiled scheduler;
* bulk draws (:class:`~repro.utils.accel.StreamSet`, one ``(624, B)``
  MT19937 state array per cell, twisted and tempered in numpy) return the
  next *k* values of that run's own stream, bit-identical to *k*
  successive ``random.Random.random()`` calls;
  :func:`~repro.utils.accel.get_numpy` self-checks this once per process
  and disables numpy on any mismatch;
* array arithmetic mirrors the scalar expressions op for op
  (``low + span * u``, selective ``* chaos``, ``min(·, δ)``,
  ``coin >= drop_prob``), so the floats — not just the draws — are
  bit-identical.

Consequences: result JSONL is byte-identical at any ``(workers, chunk,
backend)`` combination; resuming a campaign with the backend switched
changes nothing (each row depends only on its own seed); and removing any
subset of runs from a batch leaves the remaining rows' bytes untouched.
``tests/engine/test_batch_backend.py`` pins each clause.  Without numpy
the array tier demotes (``batch.demoted[numpy absent]``) and the cell runs
on the scalar oracle — same bytes, oracle speed.
"""

from repro.engine.batch.kernel import run_batch
from repro.engine.batch.plan import (
    DETERMINISTIC_STRATEGIES,
    MODE_COLUMNAR_STATE,
    MODE_REPLICATE,
    MODE_SCALAR,
    BatchPlan,
    columnar_state_blockers,
    explain_for_run,
    plan_cell,
    plan_for_run,
)
from repro.engine.cell import cell_key

__all__ = [
    "DETERMINISTIC_STRATEGIES",
    "MODE_COLUMNAR_STATE",
    "MODE_REPLICATE",
    "MODE_SCALAR",
    "BatchPlan",
    "cell_key",
    "columnar_state_blockers",
    "explain_for_run",
    "plan_cell",
    "plan_for_run",
    "run_batch",
]
