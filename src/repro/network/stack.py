"""Running the generic algorithm with *implemented* ``Pcons`` (Section 2.2).

:class:`PconsStackScheduler` realizes each selection round by a
:class:`~repro.network.wic.PconsImplementation` sub-protocol instead of an
oracle: the authenticated variant costs 2 extra rounds per phase, the
signature-free one 3 — exactly the tradeoff the paper quotes from [17].
:func:`~repro.scenarios.compile.compile_scenario` builds it for the
``pcons-auth`` / ``pcons-sigfree`` engines, and the one kernel
(``build_instance`` + ``run_instance``) runs it like every other scheduler.

The global micro-round clock is what the good/bad schedule applies to, so a
phase succeeds only when its whole expanded footprint falls in a good period
and its rotating coordinator is correct.  Validation and decision rounds are
one micro-round each of plain ``Pgood`` delivery (they never needed
``Pcons``); a bad micro-round withholds honest-bound messages through
:func:`~repro.rounds.policies.filtered_delivery` under the scenario's edge
rule, as the lockstep oracle does.

Limitations: the stack requires the Π (all-processes) selector — true for
every Byzantine algorithm in the paper — and supports Byzantine but not
crash faults (the paper's ``Pcons`` constructions target the Byzantine
models; benign algorithms get ``Pcons`` for free from synchrony when no
crash occurs in good periods).  A correct process whose selection messages
do not address all of Π raises
:class:`~repro.scenarios.compile.ScenarioInapplicable`; the compiler
refuses ``f > 0``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.types import ProcessId, RoundInfo, RoundKind
from repro.engine.scheduler import GoodBad, RoundDelivery, RoundScheduler
from repro.network.wic import MicroOutbound, PconsImplementation
from repro.rounds.base import DeliveryMatrix, OutboundMatrix, RunContext
from repro.rounds.policies import count_edges, faithful_delivery, filtered_delivery
from repro.scenarios.compile import ScenarioInapplicable


class PconsStackScheduler(RoundScheduler):
    """Untimed rounds over an implemented ``Pcons``.

    A selection round runs ``wic.execute`` (2–3 micro-rounds), every other
    round is one micro-round.  ``good_bad`` is the optional ``(schedule,
    edge rule)`` pair :class:`~repro.engine.scheduler.LockstepScheduler`
    takes; its schedule applies to the micro-round clock (without it every
    micro-round is good) and a bad micro-round is ``filtered_delivery``
    under its rule.  The counters describe the current (or last) run.
    """

    def __init__(
        self, wic: PconsImplementation, good_bad: Optional[GoodBad] = None
    ) -> None:
        self._wic = wic
        self._good_bad = good_bad
        self.reset()

    def reset(self) -> None:
        #: The global micro-round clock.
        self.micro_rounds = 0
        #: Messages put on the wire, sub-protocol traffic included.
        self.micro_messages = 0
        self.micro_dropped = 0
        #: (phase, did all correct processes obtain identical vectors).
        self.pcons_observations: List[Tuple[int, bool]] = []

    def _micro_deliver(
        self, outbound: MicroOutbound, ctx: RunContext
    ) -> DeliveryMatrix:
        self.micro_rounds += 1
        self.micro_messages += count_edges(outbound)
        if self._good_bad is not None:
            schedule, bad = self._good_bad
            if not schedule.is_good(self.micro_rounds):
                matrix, dropped = filtered_delivery(outbound, ctx.byzantine, bad)
                self.micro_dropped += dropped
                return matrix
        return faithful_delivery(outbound)

    def deliver_round(
        self, info: RoundInfo, outbound: OutboundMatrix, ctx: RunContext
    ) -> RoundDelivery:
        dropped_before = self.micro_dropped
        if info.kind is RoundKind.SELECTION:
            n = self._wic.model.n
            if any(0 < len(outbound.get(pid, ())) < n for pid in ctx.correct):
                raise ScenarioInapplicable(
                    "the Pcons stack requires the Π (all-processes) selector"
                )
            # One selection payload per sender; an equivocating sender
            # contributes what it would have told the coordinator.
            coordinator = self._wic.coordinator(info.phase)
            inputs: Dict[ProcessId, object] = {}
            for pid, raw in outbound.items():
                if not raw:
                    continue
                payload = raw.get(coordinator)
                inputs[pid] = raw[min(raw)] if payload is None else payload
            matrix = self._wic.execute(
                info.phase,
                inputs,
                lambda micro: self._micro_deliver(micro, ctx),
                ctx,
            )
            vectors = [
                tuple(sorted(matrix.get(pid, {}).items()))
                for pid in sorted(ctx.correct)
            ]
            self.pcons_observations.append(
                (info.phase, all(v == vectors[0] for v in vectors))
            )
        else:
            matrix = self._micro_deliver(outbound, ctx)
        return RoundDelivery(
            matrix, dropped=self.micro_dropped - dropped_before
        )
