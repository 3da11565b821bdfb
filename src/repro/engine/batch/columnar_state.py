"""The columnar-state executor: one array program per campaign cell.

The scalar oracle runs every send/receive/FLV evaluation of the generic
algorithm as per-run Python.  This module lifts the *algorithm state
itself* into arrays for cells the planner proved eligible
(:data:`~repro.engine.batch.plan.MODE_COLUMNAR_STATE`), on either engine:

* the cell's value alphabet is closed and encoded as small ints
  (:func:`repro.core.columnar.encode_alphabet`);
* votes, timestamps, histories, selections and decisions live in
  ``(B runs × n processes)`` arrays;
* the per-run seed enters **only** through ``(B, n, n)`` delivery masks,
  built by one of two producers on fresh
  :class:`~repro.utils.accel.StreamSet` streams (nothing is drawn at
  compile time, so fresh streams are equal streams).  *Timed*: two streams
  per run mirror the one timed sweep
  (:meth:`TimedScheduler._deliver_fast`) — the round's edge rule, then one
  batched latency draw over the admitted edges — draw for draw, every
  live run settled by the same array step.  A round whose deadline
  :meth:`~repro.eventsim.network.NetworkSpec.arrives` settles draws no
  latency, as the scalar sweep draws none: every admitted edge arrives,
  or none does.
  *Lockstep*: one policy stream per run mirrors
  :func:`~repro.rounds.policies.random_drop_behavior` under
  :func:`~repro.rounds.policies.filtered_delivery` — one coin per edge
  whose receiver is not Byzantine, in sender-major order, in the bad
  rounds of a coin-drawing comm; every other round draws nothing and its
  delivery is a run-invariant template obtained by driving the cell's
  *real* compiled scheduler (``Pcons`` canonicalization and injection,
  faithful ``Pgood`` delivery, the rescan drop count) over the round's
  template outbound;
* FLV classes 1–3, ANY-resolution, validation quorums and decision
  thresholds evaluate as the counting/argmax reductions of
  :mod:`repro.core.columnar`.

Everything that is *not* seed-dependent is a per-cell template, built the
first time a run reaches the round: Byzantine outbound payloads (the
inbox-free strategies are each driven through rounds ``1..max_rounds``
once and their real dict/frozenset iteration orders recorded), per-round
edge lists, selector suggestions and validator sets, and coercion
verdicts.  Byzantine payloads overlay the honest state per ``(dest,
sender)``: the timed scheduler pins an equivocator to one selection
payload per round, the lockstep oracle does so only in good rounds — in
lossy/bad rounds its per-destination payloads arrive raw.

The one strategy that reads its inbox, ``adaptive-liar``, keeps a single
piece of per-run state: a vote tally, here one ``(B, V)`` count array per
liar fed from the liar's *own row* of the delivery mask (raw traffic under
lockstep, ``Pcons``-canonical and deadline-filtered when timed — whatever
the mask and overlays say its row holds).  Its template payloads come
from the real strategy holding a tally of two placeholder values, so the
overlays name "liar *k*'s minority / majority" by code and each round
resolves them per run to the argmin / argmax of ``(count, code)``.

Any surprise while building or running the array program raises
(:class:`Demote` with the reason, or whatever broke) and the whole cell
re-executes on the scalar oracle.  Demotion costs speed, never bytes: the
scalar kernel remains the oracle the identity suite diffs this executor
against.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Sequence

from repro.core.columnar import (
    NULL_CODE,
    count_pairs,
    counts_by_value,
    encode_alphabet,
    flv_class1_columnar,
    flv_class2_columnar,
    flv_class3_columnar,
    pick_min_code,
    resolve_any_columnar,
    threshold_pick,
)
from repro.core.types import (
    DecisionMessage,
    RoundKind,
    SelectionMessage,
    coerce_decision_message,
    coerce_selection_message,
    coerce_validation_message,
)
from repro.engine.cell import RunSpec
from repro.faults.registry import build_byzantine
from repro.rounds.base import RunContext
from repro.rounds.policies import count_edges
from repro.scenarios.compile import (
    CompiledScenario,
    _bad_rule,
    _memoized_schedule,
)
from repro.scenarios.spec import split_values
from repro.utils.accel import StreamSet
from repro.utils.sentinels import ANY_VALUE, NULL_VALUE

__all__ = ["CellProgram", "Demote"]


class Demote(Exception):
    """The cell cannot run as an array program; the scalar oracle takes it."""


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise Demote(why)


class _RoundTemplate:
    """The seed-independent description of one global round of the cell."""

    __slots__ = (
        "number",
        "phase",
        "kind",
        "e_send",
        "e_dest",
        "coin_idx",
        "sent",
        # Byzantine overlays, all (dest, sender): selection …
        "sok",
        "svote",
        "sts",
        "shist",
        # … validation …
        "vsel",
        "val_mask",
        "val_len",
        # … decision.
        "dvote",
        "dts",
        "dok",
        # What each adaptive liar tallies from its own inbox row: one
        # ``(pid, counted senders (n,), their codes (1, n))`` per liar.
        "heard",
        # Run-invariant delivery precomputation.  ``fixed`` is a whole
        # zero-draw round ``(mask, delivered, dropped)``, else ``None``: the
        # round draws, and ``admit_base`` (edge order) is what its rule
        # admits before any coin, ``use_coins`` whether coins flip the
        # ``coin_idx`` edges.  Timed only: the wall-clock window, and
        # ``NetworkSpec.arrives`` of its start (``None`` where the deadline
        # sweep draws one latency per admitted edge).
        "flat",
        "fixed",
        "admit_base",
        "use_coins",
        "now",
        "deadline",
        "pre_gst",
        "arrives",
    )


class CellProgram:
    """One campaign cell compiled to templates + array-program parameters."""

    def __init__(
        self, np, run: RunSpec, parameters, compiled: CompiledScenario
    ) -> None:
        self.np = np
        model = self.model = compiled.model
        self.parameters = parameters
        self.byzantine = dict(compiled.byzantine)
        self.lockstep = run.engine == "lockstep"
        # Lockstep zero-draw rounds are delivered by the real scheduler.
        self.scheduler = compiled.scheduler
        scenario = run.scenario
        self.timing = scenario.timing
        self.comm = scenario.comm

        from repro.core.flv_class1 import FLVClass1
        from repro.core.flv_class2 import FLVClass2
        from repro.core.flv_class3 import FLVClass3
        from repro.core.process import RoundStructure
        from repro.core.types import Flag

        n = model.n
        self.n = n
        self.b = model.b
        self.threshold = parameters.threshold
        flv = parameters.flv
        self.slack = flv._slack
        self.flv_class = {FLVClass1: 1, FLVClass2: 2, FLVClass3: 3}[type(flv)]
        self.ensure_unanimity = (
            flv.ensure_unanimity if self.flv_class == 3 else True
        )
        self.uses_ts = flv.requirements.uses_ts
        self.phase_gated = parameters.flag is Flag.CURRENT_PHASE
        # History is consulted by the validation round's line-26 revert and
        # (class 3) by FLV history support; FLAG = * cells need neither.
        self.need_hist = self.phase_gated or self.flv_class == 3
        self.structure = RoundStructure(parameters.flag)
        self.max_phases = compiled.max_phases(run.max_phases)
        self.max_rounds = self.structure.rounds_for_phases(self.max_phases)

        self.byz_pids = sorted(self.byzantine)
        self.honest_pids = [
            pid for pid in range(n) if pid not in self.byzantine
        ]
        self.byz_col = np.zeros(n, dtype=bool)
        self.byz_col[self.byz_pids] = True
        self.honest_col = ~self.byz_col
        self.context = RunContext(model, byzantine=frozenset(self.byz_pids))
        #: The never-crashing honest set (the planner excluded crashes).
        self.correct = frozenset(self.honest_pids)
        self.initial_values = split_values(model, self.byzantine)

        comm = self.comm
        _require(comm.per_edge, "comm has no per-edge mask form")
        self.drop_prob = comm.drop_prob
        self.is_good = _memoized_schedule(comm).is_good
        #: Bad rounds flip loss coins; any other bad behaviour is a
        #: run-invariant edge rule.
        self.coins = comm.draws_coins()
        #: The scalar clock, timed only: round r starts at ``starts[r - 1]``.
        duration = self.timing.round_duration
        self.starts = [] if self.lockstep else list(
            accumulate([duration] * (self.max_rounds - 1), initial=0.0)
        )
        #: Whether some round leaves its deadline to the latency draws.
        self.draws = any(self.timing.arrives(now) is None for now in self.starts)
        self._compile_payloads()

    # ------------------------------------------------------------ filters

    def _coin_round(self, number: int) -> bool:
        """One loss coin per honest-bound edge: a coin comm's bad rounds."""
        return self.coins and not self.is_good(number)

    # ---------------------------------------------------------- templates

    def _compile_payloads(self) -> None:
        """Byzantine payloads of every round, and the alphabet they close."""
        parameters = self.parameters
        selector = parameters.selector
        max_phases = self.max_phases

        strategies = {
            pid: build_byzantine(pid, self.byzantine[pid], parameters)
            for pid in self.byz_pids
        }
        # An adaptive liar's payloads depend on the run through two values
        # only: its tally's current minority and majority.  Its template
        # instance gets a tally ranking two placeholder values, so its real
        # ``send`` utters *them* — which receiver is told which, with what
        # timestamp and history, stays the strategy's own code — and the
        # array program resolves the placeholders per run.  Being a pure
        # function of the round, it is sent when a template needs it.
        self.liars = {
            pid: strategies.pop(pid)
            for pid in self.byz_pids
            if self.byzantine[pid] == "adaptive-liar"
        }
        placeholders: List[object] = []
        for liar in self.liars.values():
            minority, majority = object(), object()
            liar._tally = {minority: 1, majority: 2}
            placeholders += [minority, majority]
        self.suggestions = {
            phase: list(selector.select(0, phase))
            for phase in range(1, max_phases + 1)
        }
        # Drive every inbox-free strategy through every round once, in
        # ascending order — exactly the rounds any run would execute — and
        # record the *actual* payloads and dict iteration orders.  RandomNoise
        # seeds its garbage stream from its pid, so the sequence of draws is
        # the same in every run of the cell; early-stopping runs consumed a
        # prefix of it, which recording rounds in ascending order preserves.
        self.outboxes = {}
        values = set(self.initial_values.values())
        values.update(liar.fallback for liar in self.liars.values())
        for number in range(1, self.max_rounds + 1):
            info = self.structure.info(number)
            per_round = {}
            for pid, strategy in strategies.items():
                out = strategy.send(info)
                per_round[pid] = out
                for payload in out.values():
                    _collect_values(info.kind, payload, values)
            self.outboxes[number] = per_round

        self.alphabet = encode_alphabet(values)
        _require(
            all(
                value is not ANY_VALUE and value is not NULL_VALUE
                for value in self.alphabet
            ),
            "sentinel values cannot be encoded",
        )
        self.n_values = len(self.alphabet)
        self.code = {value: index for index, value in enumerate(self.alphabet)}
        #: Placeholder codes follow the alphabet: ``V + 2k`` is liar ``k``'s
        #: minority, ``V + 2k + 1`` its majority.
        self.n_codes = self.n_values + len(placeholders)
        self.code.update(zip(placeholders, range(self.n_values, self.n_codes)))
        self.fallbacks = self.np.array(
            [self.code[liar.fallback] for liar in self.liars.values()],
            dtype=self.np.int64,
        )
        self.initial_codes = {
            pid: self.code[value] for pid, value in self.initial_values.items()
        }
        #: ``(e_send, e_dest, flat, coin_idx)`` per outbound shape: most
        #: rounds repeat an earlier round's edges.
        self.edges: Dict[tuple, tuple] = {}

    def _build_template(self, number: int) -> _RoundTemplate:
        """Round ``number``'s template, built when the live runs reach it."""
        np = self.np
        n = self.n
        info = self.structure.info(number)
        kind = info.kind
        rt = _RoundTemplate()
        rt.number = number
        rt.phase = info.phase
        rt.kind = kind

        everyone = dict.fromkeys(self.model.processes)
        # Only a Byzantine sender can tell receivers apart: without one, a
        # single overlay row serves every receiver.
        rows = n if self.byz_pids else 1
        if kind is RoundKind.SELECTION:
            honest_out = dict.fromkeys(self.suggestions[info.phase])
            rt.sok = np.zeros((rows, n), dtype=bool)
            rt.sok[:, self.honest_pids] = True
            rt.svote = np.full((rows, n), NULL_CODE, dtype=np.int64)
            rt.sts = np.zeros((rows, n), dtype=np.int64)
            rt.shist = {}
        elif kind is RoundKind.VALIDATION:
            validators = self.parameters.selector.select(0, info.phase)
            rt.val_mask = np.zeros(n, dtype=bool)
            rt.val_mask[list(validators)] = True
            rt.val_len = len(validators)
            rt.vsel = np.full((rows, n), NULL_CODE, dtype=np.int64)
        else:
            rt.dvote = np.full((rows, n), NULL_CODE, dtype=np.int64)
            rt.dts = np.zeros((rows, n), dtype=np.int64)
            rt.dok = np.zeros((rows, n), dtype=bool)
            rt.dok[:, self.honest_pids] = True

        # The round's template outbound, in the kernel's sender-major order;
        # honest payloads are run-dependent and stay ``None`` (no delivery
        # discipline ever reads a payload).
        outbound = {}
        for sender in range(n):
            if sender in self.liars:
                outbound[sender] = self.liars[sender].send(info)
            elif sender in self.byzantine:
                outbound[sender] = self.outboxes[number][sender]
            elif kind is RoundKind.SELECTION:
                outbound[sender] = honest_out
            elif kind is RoundKind.VALIDATION and not rt.val_mask[sender]:
                outbound[sender] = {}
            else:
                outbound[sender] = everyone
        shape = tuple(map(tuple, outbound.values()))
        edges = self.edges.get(shape)
        if edges is None:
            e_send = np.repeat(np.arange(n, dtype=np.intp), list(map(len, shape)))
            e_dest = np.asarray([d for out in shape for d in out], dtype=np.intp)
            # Which edges consume one policy coin in a coin round: the rule
            # is never asked about Byzantine receivers, which draw none.
            coin_idx = np.nonzero(~self.byz_col[e_dest])[0]
            edges = self.edges[shape] = (e_send, e_dest, e_dest * n + e_send, coin_idx)
        rt.e_send, rt.e_dest, rt.flat, rt.coin_idx = edges
        rt.sent = rt.e_send.size

        matrix = None
        if self.lockstep:
            matrix = self._precompute_lockstep(rt, info, outbound)
        else:
            self._precompute_delivery(rt)

        # Byzantine overlays: what each receiver would read from each
        # Byzantine sender if the edge arrives.
        tables: Dict[int, object] = {}
        for sender in self.byz_pids:
            out = outbound[sender]
            if matrix is not None:
                # Zero-draw lockstep round: the oracle already decided —
                # canonical (and possibly injected) under Pcons, raw else
                # and on Byzantine rows (a liar reads its own).
                seen = [
                    (dest, inbox[sender])
                    for dest, inbox in matrix.items()
                    if sender in inbox
                ]
            elif kind is RoundKind.SELECTION and out and not self.lockstep:
                # Timed Pcons canonicalization: one payload per Byzantine
                # sender per selection round — that of its first outbound
                # edge, whichever edges survive the filter.
                seen = dict.fromkeys(out, next(iter(out.values()))).items()
            else:
                seen = out.items()  # raw, per destination
            for dest, payload in seen:
                carried = self._overlay(rt, dest, sender, payload, tables)
                # An adaptive liar tallies every Selection/Decision
                # *instance* it is handed — unvalidated, in any round kind
                # — where the overlays hold validated votes of the round's
                # own kind; ``noise`` garbage tells the two apart.
                _require(
                    dest not in self.liars
                    or carried
                    == isinstance(payload, (SelectionMessage, DecisionMessage)),
                    "adaptive-liar would tally a payload the overlays do not carry",
                )
        rt.heard = []
        if rows == 1:
            return rt
        # Where every honest receiver reads the same row, keep one: the
        # array program then broadcasts ``(B, 1, n)`` honest state instead
        # of materializing ``(B, n, n)`` per-receiver copies.
        honest = self.honest_pids
        if kind is RoundKind.SELECTION:
            rt.heard = [(pid, rt.sok[pid], rt.svote[[pid]]) for pid in self.liars]
            rt.sok = _shared_row(rt.sok, honest)
            rt.svote = _shared_row(rt.svote, honest)
            rt.sts = _shared_row(rt.sts, honest)
            rt.shist = {
                sender: _shared_row(table, honest)
                for sender, table in rt.shist.items()
            }
        elif kind is RoundKind.VALIDATION:
            rt.vsel = _shared_row(rt.vsel, honest)
        else:
            rt.heard = [(pid, rt.dok[pid], rt.dvote[[pid]]) for pid in self.liars]
            rt.dok = _shared_row(rt.dok, honest)
            rt.dvote = _shared_row(rt.dvote, honest)
            rt.dts = _shared_row(rt.dts, honest)
        return rt

    def _overlay(self, rt, dest: int, sender: int, payload, tables) -> bool:
        """Write one payload into the round's overlays; true when a *vote*
        overlay (selection or decision) now carries it."""
        code = self.code
        if rt.kind is RoundKind.SELECTION:
            parsed = coerce_selection_message(payload)
            if parsed is None:
                return False
            rt.sok[dest, sender] = True
            rt.svote[dest, sender] = _encode(code, parsed.vote)
            rt.sts[dest, sender] = parsed.ts
            if self.flv_class == 3:
                table = tables.get(id(payload))
                if table is None:
                    table = tables[id(payload)] = _history_table(
                        self.np, parsed.history, code,
                        self.n_codes, self.max_phases,
                    )
                if sender not in rt.shist:
                    rt.shist[sender] = self.np.zeros(
                        (self.n,) + table.shape, dtype=bool
                    )
                rt.shist[sender][dest] = table
        elif rt.kind is RoundKind.VALIDATION:
            parsed = coerce_validation_message(payload)
            if parsed is not None and parsed.select is not NULL_VALUE:
                rt.vsel[dest, sender] = _encode(code, parsed.select)
            return False
        else:
            parsed = coerce_decision_message(payload)
            if parsed is None:
                return False
            rt.dok[dest, sender] = True
            rt.dvote[dest, sender] = _encode(code, parsed.vote)
            rt.dts[dest, sender] = parsed.ts
        return True

    def _precompute_lockstep(self, rt: _RoundTemplate, info, outbound):
        """Round ``rt`` under the oracle policy; returns its delivery matrix
        when the round is zero-draw (``None`` for a coin round).

        A coin round mirrors ``random_drop_behavior``: Byzantine receivers
        get everything addressed to them, every other edge flips one coin
        in sender-major order.  Any other round consumes no randomness, so
        the cell's real compiled scheduler delivers the template outbound
        once for all runs — ``Pcons`` canonicalization and injection in
        good selection rounds, faithful delivery elsewhere, and the
        scheduler's own drop count.
        """
        np = self.np
        n = self.n
        if self._coin_round(rt.number):
            rt.fixed = None
            rt.admit_base = self.byz_col[rt.e_dest]
            rt.use_coins = rt.coin_idx.size > 0
            rt.arrives = True  # no deadline: every admitted edge arrives
            return None
        delivery = self.scheduler.deliver_round(info, outbound, self.context)
        mask = np.zeros((n, n), dtype=bool)
        for dest, inbox in delivery.matrix.items():
            mask[dest, list(inbox)] = True
        rt.fixed = (mask, count_edges(delivery.matrix), delivery.dropped)
        return delivery.matrix

    def _precompute_delivery(self, rt: _RoundTemplate) -> None:
        """Everything about timed round ``rt`` that no per-run seed can change.

        The wall clock is run-invariant (every run accumulates the same
        ``deadline = now + round_duration`` float sequence), and so is a
        bad round's admission base — only the per-edge drop coins differ
        between runs.  A round that then draws nothing (no coins, and a
        run-invariant transit verdict or no admitted edge) is delivered
        here once for all runs; in any other, :meth:`_deliver` draws every
        live run's coins and, where the deadline rule says ``None``,
        latencies, and settles all of them with one deadline compare.
        """
        np = self.np
        rt.now = now = self.starts[rt.number - 1]
        rt.deadline = now + self.timing.round_duration
        rt.pre_gst = now < self.timing.gst
        rt.arrives = self.timing.arrives(now)

        byz_dest = self.byz_col[rt.e_dest]
        rt.use_coins = False
        if self.is_good(rt.number):
            # A good round's rule admits every edge: the deadline decides.
            rt.admit_base = np.ones(rt.sent, dtype=bool)
        elif self.coins:
            # One coin per edge whose receiver is not Byzantine, in template
            # (sender-major) order, flips each edge of the base on or off.
            rt.admit_base = byz_dest
            rt.use_coins = rt.coin_idx.size > 0
        else:
            # Not a coin comm: its rule draws nothing, so it needs no rng
            # and its verdict per template edge holds for every run.
            rule = _bad_rule(self.comm, self.model, None)
            rt.admit_base = byz_dest | np.fromiter(
                (rule(int(s), int(d)) for s, d in zip(rt.e_send, rt.e_dest)),
                dtype=bool,
                count=rt.sent,
            )
        rt.fixed = None
        if not rt.use_coins and (
            rt.arrives is not None or not rt.admit_base.any()
        ):
            # Zero-draw: one delivery for every run.
            on = rt.admit_base if rt.arrives else np.zeros_like(rt.admit_base)
            mask = np.zeros(self.n * self.n, dtype=bool)
            mask[rt.flat[on]] = True
            got = int(on.sum())
            rt.fixed = (mask.reshape(self.n, self.n), got, rt.sent - got)

    # ----------------------------------------------------- mask producers

    def _transits(self, rt: _RoundTemplate, network: StreamSet, live, counts):
        """The next transit times of each live run's network stream, concatenated.

        Run ``live[i]`` draws one round-wide block for its ``counts[i]``
        messages, as the scheduler's one ``sample_round`` call per round
        does; the arithmetic is op-for-op the per-message draws of
        :meth:`PartialSynchronyNetwork.sample_round`.  Pre-GST the uniform
        model interleaves (base, chaos coin) pairs: every run's block has
        even length, so the pairs stay aligned across the concatenation.
        """
        np = self.np
        t = self.timing
        low, span = t.low, t.high - t.low
        pairs = rt.pre_gst and t.kind == "uniform"
        draws = network.ragged(live, 2 * counts if pairs else counts)
        if not rt.pre_gst:
            transits = low + span * draws
            if t.clamps:
                transits = np.minimum(transits, t.delta)
            return transits
        chaos, prob = t.chaos_factor, t.pre_gst_delay_prob
        if not pairs:
            return np.where(draws < prob, low * chaos, low)
        bases = low + span * draws[0::2]
        # ``x * 1.0`` is ``x``: the delayed ones alone change, by ``* chaos``.
        bases *= np.where(draws[1::2] < prob, chaos, 1.0)
        return bases

    def _deliver(self, rt: _RoundTemplate, streams, live):
        """``(mask, delivered, dropped)`` of round ``rt`` for the ``live`` runs.

        ``mask`` is ``(B, n, n)`` dest-major (rows of finished runs are
        don't-cares); the counts are per live run, or run-invariant ints.
        ``streams`` is ``(policy, network)``, one stream per run each (no
        network when no round draws a latency).  A drawing round is one
        array step over the live runs: each run's coins from its own
        policy stream, stacked; where the deadline rule says ``None``, each
        run's latency block from its own network stream, all of them
        against the deadline in one compare.  Per stream the draws are the
        scalar scheduler's, in its order — the filter's coins, then the
        deadline sweep's latencies.
        """
        np = self.np
        n = self.n
        policy, network = streams
        B = policy.pos.size
        if rt.fixed is not None:
            mask, got, lost = rt.fixed
            return np.broadcast_to(mask, (B, n, n)), got, lost
        on = np.broadcast_to(rt.admit_base, (live.size, rt.sent))
        if rt.use_coins:
            k = int(rt.coin_idx.size)
            coins = policy.block(live, k) >= self.drop_prob
            if k == rt.sent:  # every edge flips a coin
                on = coins
            else:
                on = on.copy()
                on[:, rt.coin_idx] = coins
        if rt.arrives is None:
            admitted = on
            on = np.zeros(admitted.shape, dtype=bool)
            transits = self._transits(rt, network, live, admitted.sum(axis=1))
            on[admitted] = rt.now + transits <= rt.deadline
        elif not rt.arrives:
            on = np.zeros_like(on)
        deliv = np.zeros((B, n * n), dtype=bool)
        rows = slice(None) if live.size == B else live[:, None]
        deliv[rows, rt.flat] = on
        got = on.sum(axis=1)
        return deliv.reshape(B, n, n), got, rt.sent - got

    # ------------------------------------------------------ array program

    def execute(self, seeds: Sequence[int]) -> List[Dict[str, object]]:
        """Run every seed's instance at once; one result dict per seed:
        the oracle's row metrics plus ``decided_values`` for the property
        report."""
        np = self.np
        n = self.n
        B = len(seeds)
        P = self.max_phases
        V = self.n_values
        honest_col = self.honest_col

        # Per run, streams seeded with the run seed exactly as scalar
        # compilation builds them: the policy stream, and when timed a
        # second ``random.Random(seed)`` for the network — the same
        # sequence, read at its own offset — unless no round draws a
        # latency.
        network = StreamSet(np, seeds) if self.draws else None
        streams = (StreamSet(np, seeds), network)
        vote = np.zeros((B, n), dtype=np.int64)
        ts = np.zeros((B, n), dtype=np.int64)
        selected = np.full((B, n), NULL_CODE, dtype=np.int64)
        hist = None
        if self.need_hist:
            hist = np.full((B, n, P + 1), NULL_CODE, dtype=np.int64)
        for pid, value_code in self.initial_codes.items():
            vote[:, pid] = value_code
            if hist is not None:
                hist[:, pid, 0] = value_code

        decided = np.zeros((B, n), dtype=bool)
        dec_value = np.full((B, n), NULL_CODE, dtype=np.int64)
        dec_round = np.zeros((B, n), dtype=np.int64)
        dec_time = np.zeros((B, n), dtype=np.float64)
        rounds_exec = np.zeros(B, dtype=np.int64)
        sent = np.zeros(B, dtype=np.int64)
        delivered = np.zeros(B, dtype=np.int64)
        dropped = np.zeros(B, dtype=np.int64)
        active = np.ones(B, dtype=bool)
        #: Each adaptive liar's whole state: how often it saw each value.
        tally = np.zeros((B, len(self.liars), V), dtype=np.int64)

        b_idx = np.arange(B)[:, None, None]
        b_idx2 = np.arange(B)[:, None]
        for number in range(1, self.max_rounds + 1):
            if not active.any():
                break
            rt = self._build_template(number)
            deliv, arrived, lost = self._deliver(
                rt, streams, np.nonzero(active)[0]
            )
            sent[active] += rt.sent
            delivered[active] += arrived
            dropped[active] += lost

            upd = active[:, None] & honest_col[None, :]
            phase = rt.phase
            # Liars send on what they saw up to the previous round, then
            # tally this round's inbox row — votes as sent, before any
            # transition below rebinds ``vote``.
            ranked = self._ranked(tally)
            for k, (pid, counted, codes) in enumerate(rt.heard):
                heard = np.where(
                    self.byz_col, self._said(codes, ranked)[:, 0], vote
                )
                tally[:, k] += counts_by_value(
                    np, deliv[:, pid] & counted, heard, V
                )
            if rt.kind is RoundKind.SELECTION:
                valid = deliv & rt.sok[None, :, :]
                eff_vote = np.where(
                    self.byz_col, self._said(rt.svote, ranked), vote[:, None, :]
                )
                if self.uses_ts:
                    eff_ts = np.where(
                        self.byz_col, rt.sts[None, :, :], ts[:, None, :]
                    )
                else:
                    eff_ts = np.where(
                        self.byz_col,
                        rt.sts[None, :, :],
                        np.zeros((B, 1, n), dtype=np.int64),
                    )
                if self.flv_class == 1:
                    concrete, any_mask = flv_class1_columnar(
                        np, valid, eff_vote, V, self.slack
                    )
                elif self.flv_class == 2:
                    concrete, any_mask = flv_class2_columnar(
                        np, valid, eff_vote, eff_ts, V, self.slack, self.b
                    )
                else:
                    hsup = self._history_support(
                        rt, valid, eff_vote, eff_ts, hist, b_idx, ranked
                    )
                    concrete, any_mask = flv_class3_columnar(
                        np, valid, eff_vote, eff_ts, hsup, V,
                        self.slack, self.b, self.ensure_unanimity,
                    )
                resolved = resolve_any_columnar(np, valid, eff_vote, V)
                sel = np.where(any_mask, resolved, concrete)
                got = sel >= 0
                vote = np.where(upd & got, sel, vote)
                if hist is not None:
                    hist[:, :, phase] = np.where(
                        upd & got, sel, hist[:, :, phase]
                    )
                selected = np.where(upd, sel, selected)
            elif rt.kind is RoundKind.VALIDATION:
                eff_sel = np.where(
                    self.byz_col, self._said(rt.vsel, ranked), selected[:, None, :]
                )
                valid = deliv & (eff_sel >= 0) & rt.val_mask[None, None, :]
                counts = counts_by_value(np, valid, eff_sel, V)
                winners = 2 * counts > rt.val_len + self.b
                pick = pick_min_code(np, winners)
                success = pick >= 0
                vote = np.where(upd & success, pick, vote)
                ts = np.where(upd & success, phase, ts)
                # Line 26: revert to the (unique) history value at ts, or
                # keep the vote when no selection was logged at that phase.
                reverted = hist[b_idx2, np.arange(n)[None, :], ts]
                revert = upd & ~success & (reverted != NULL_CODE)
                vote = np.where(revert, reverted, vote)
            else:
                eff_vote = np.where(
                    self.byz_col, self._said(rt.dvote, ranked), vote[:, None, :]
                )
                valid = deliv & rt.dok[None, :, :]
                if self.phase_gated:
                    eff_ts = np.where(
                        self.byz_col, rt.dts[None, :, :], ts[:, None, :]
                    )
                    valid = valid & (eff_ts == phase)
                counts = counts_by_value(np, valid, eff_vote, V)
                win = threshold_pick(np, counts, self.threshold)
                fired = upd & (win >= 0) & ~decided
                dec_value = np.where(fired, win, dec_value)
                dec_round = np.where(fired, rt.number, dec_round)
                if not self.lockstep:
                    dec_time = np.where(fired, rt.deadline, dec_time)
                decided = decided | fired

            rounds_exec[active] = rt.number
            all_decided = (decided | self.byz_col[None, :]).all(axis=1)
            active = active & ~all_decided

        results = []
        for bi in range(B):
            done = [pid for pid in self.honest_pids if decided[bi, pid]]
            # Phase counts are a lockstep metric, time-to-decision a timed
            # one — the same split the oracle's row makes.
            phases = time_to_decision = None
            if done and self.lockstep:
                last = int(dec_round[bi, done].max())
                phases = self.structure.info(last).phase
            elif done:
                time_to_decision = float(dec_time[bi, done].max())
            results.append(
                {
                    "decided_values": {
                        pid: self.alphabet[int(dec_value[bi, pid])]
                        for pid in done
                    },
                    "decided": len(done),
                    "rounds": int(rounds_exec[bi]),
                    "phases": phases,
                    "time_to_decision": time_to_decision,
                    "messages_sent": int(sent[bi]),
                    "messages_delivered": int(delivered[bi]),
                    "messages_dropped": int(dropped[bi]),
                }
            )
        return results

    def _ranked(self, tally):
        """``(B, 2K)`` codes, liar ``k``'s (minority, majority) at ``2k, 2k+1``:
        the argmin / argmax of ``(count, code)`` over the values it has seen
        (``AdaptiveLiar._split_values``), its fallback before it saw any.
        ``None`` in a cell without liars."""
        np = self.np
        B, K, V = tally.shape
        if not K:
            return None
        seen = tally > 0
        key = tally * V + np.arange(V)
        pair = np.stack(
            [
                np.where(seen, key, key.max() + 1).argmin(axis=-1),
                np.where(seen, key, -1).argmax(axis=-1),
            ],
            axis=-1,
        )
        blank = ~seen.any(axis=-1)[:, :, None]
        return np.where(blank, self.fallbacks[:, None], pair).reshape(B, 2 * K)

    def _said(self, codes, ranked):
        """A ``(dest, sender)`` code overlay per run, ``(B | 1, dest, sender)``:
        placeholder codes become the run's ranked values."""
        V = self.n_values
        if ranked is None:
            return codes[None, :, :]
        return self.np.where(
            codes >= V, ranked[:, self.np.maximum(codes - V, 0)], codes
        )

    def _history_support(
        self, rt, valid, eff_vote, eff_ts, hist, b_idx, ranked
    ):
        """``history_support[b, d, m]``: valid senders whose history holds
        the queried ``(vote_m, ts_m)`` pair (class-3 FLV, Algorithm 4 line 2).
        """
        np = self.np
        P = self.max_phases
        in_range = (eff_ts >= 0) & (eff_ts <= P) & (eff_vote >= 0)
        ts_q = np.clip(eff_ts, 0, P)
        vote_q = np.clip(eff_vote, 0, self.n_values - 1)
        # Every honest sender's history at every queried phase, one gather:
        # ``held[b, d, m, h] = hist[b, honest[h], ts_q[b, d, m]]``.
        honest = self.honest_pids
        held = hist[b_idx[..., None], honest, ts_q[..., None]]
        support = np.where(
            in_range,
            count_pairs(np, held == eff_vote[..., None], valid[:, :, honest]),
            0,
        )
        for sender, table in rt.shist.items():
            d_idx = np.arange(len(table))[None, :, None]
            contains = table[d_idx, vote_q, ts_q]
            # A liar's history names placeholders: it holds the queried
            # pair where the run's ranked value is the queried vote.
            for j in range(self.n_codes - self.n_values):
                contains = contains | (
                    table[d_idx, self.n_values + j, ts_q]
                    & (ranked[:, j, None, None] == eff_vote)
                )
            support += np.where(
                valid[:, :, sender][:, :, None], in_range & contains, False
            )
        return support


def _shared_row(overlay, honest: List[int]):
    """``overlay[:1]`` when all honest receivers' rows agree, else as is."""
    rows = overlay[honest]
    return rows[:1] if (rows == rows[:1]).all() else overlay


def _encode(code: Dict, value) -> int:
    try:
        result = code[value]
    except (KeyError, TypeError):
        raise Demote(f"value {value!r} escaped the cell alphabet") from None
    return result


def _history_table(np, history, code, n_values: int, max_phases: int):
    """One Byzantine history as a dense ``(V, P+1)`` membership table."""
    table = np.zeros((n_values, max_phases + 1), dtype=bool)
    for value, entry_phase in history:
        _require(
            0 <= entry_phase <= max_phases,
            "byzantine history phase outside the horizon",
        )
        index = code.get(value)
        if index is not None:
            table[index, entry_phase] = True
    return table


def _collect_values(kind, payload, values) -> None:
    """Add every encodable value a coerced payload can inject to the pool."""
    if kind is RoundKind.SELECTION:
        parsed = coerce_selection_message(payload)
        if parsed is not None:
            values.add(parsed.vote)
    elif kind is RoundKind.VALIDATION:
        parsed = coerce_validation_message(payload)
        if parsed is not None and parsed.select is not NULL_VALUE:
            values.add(parsed.select)
    else:
        parsed = coerce_decision_message(payload)
        if parsed is not None:
            values.add(parsed.vote)
