"""Coordinator-based implementations of ``Pcons`` out of ``Pgood``.

Following [17] (and, for the leader-free idea, [2]), a selection round that
needs ``Pcons`` is realized by a small echo sub-protocol driven by a
rotating coordinator:

:class:`AuthenticatedCoordinatorEcho` (2 micro-rounds, signed messages)
    1. every process signs its payload and sends it to the coordinator;
    2. the coordinator relays the set of signed messages to everyone;
       receivers keep only entries with valid signatures.

    With a correct coordinator in a good period all correct processes adopt
    the identical relayed vector — ``Pcons`` holds.  A Byzantine coordinator
    can split the vector between receivers (``Pcons`` fails that phase) but
    can never inject forged entries; the rotation guarantees a correct
    coordinator within ``b + 1`` phases.

:class:`SignatureFreeCoordinatorEcho` (3 micro-rounds, no signatures,
requires ``n > 3b``)
    1. every process sends its payload to the coordinator;
    2. the coordinator relays the received vector to everyone;
    3. every process echoes the relayed vector to everyone; a receiver
       accepts entry ``(q, v)`` iff at least ``n − 2b`` echoed vectors
       contain it.

    With a correct coordinator in a good period, all ``n − b`` honest
    processes echo the same vector, so every correct process accepts exactly
    that vector (``n − b ≥ n − 2b``), and Byzantine echoes (≤ b < n − 2b
    when n > 3b) cannot add entries.  Two correct processes can never accept
    conflicting entries for the same sender: two quorums of ``n − 2b``
    echoes intersect in an honest process when ``n > 3b``.

Byzantine behaviour inside the sub-protocol is controlled by
:class:`WicAdversaryMode` — the interesting attack surface is the Byzantine
*coordinator* (equivocating relays) and Byzantine senders feeding the
coordinator; honest echo logic is fixed by the protocol.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.types import FaultModel, Phase, ProcessId
from repro.network.signatures import Signature, SignatureService
from repro.rounds.base import DeliveryMatrix, RunContext

#: One sub-protocol exchange: sender → (dest → payload).
MicroOutbound = Dict[ProcessId, Dict[ProcessId, object]]

#: Delivery function supplied by the stack: applies Pgood-or-worse delivery
#: for one micro round, advancing the global round clock.
MicroDeliver = Callable[[MicroOutbound], DeliveryMatrix]


class WicAdversaryMode(enum.Enum):
    """How Byzantine processes behave inside the sub-protocol."""

    #: Participate per protocol (their input payload may still be malicious).
    FOLLOW = "follow"
    #: As coordinator, relay different subsets to different receivers; as
    #: echoer, echo per protocol.
    EQUIVOCATE = "equivocate"
    #: Send nothing inside the sub-protocol.
    SILENT = "silent"


@dataclass(frozen=True)
class _Relay:
    """The coordinator's relay message: a vector of (sender, payload[, sig])."""

    entries: Tuple[Tuple[ProcessId, object, Optional[Signature]], ...]


@dataclass(frozen=True)
class _Echo:
    """Micro-round-3 echo of the relayed vector (signature-free variant)."""

    entries: Tuple[Tuple[ProcessId, object], ...]


class PconsImplementation(abc.ABC):
    """A sub-protocol turning per-sender payloads into consistent vectors."""

    #: Number of micro-rounds one invocation consumes.
    rounds: int

    def __init__(
        self,
        model: FaultModel,
        *,
        adversary_mode: WicAdversaryMode = WicAdversaryMode.EQUIVOCATE,
    ) -> None:
        self._model = model
        self._mode = adversary_mode

    @property
    def model(self) -> FaultModel:
        return self._model

    def coordinator(self, phase: Phase) -> ProcessId:
        """Rotating coordinator: phase φ is led by ``(φ − 1) mod n``."""
        return (phase - 1) % self._model.n

    @abc.abstractmethod
    def execute(
        self,
        phase: Phase,
        inputs: Mapping[ProcessId, object],
        deliver: MicroDeliver,
        ctx: RunContext,
    ) -> DeliveryMatrix:
        """Run the sub-protocol and return receiver → (sender → payload).

        ``inputs`` holds each participating process's payload for this
        selection round (Byzantine payloads included — the sub-protocol does
        not sanitize content, only consistency).  ``deliver`` performs one
        micro-round of network delivery under the ambient policy.
        """

class AuthenticatedCoordinatorEcho(PconsImplementation):
    """2-round signed relay (authenticated Byzantine model)."""

    rounds = 2

    def __init__(
        self,
        model: FaultModel,
        signatures: Optional[SignatureService] = None,
        *,
        adversary_mode: WicAdversaryMode = WicAdversaryMode.EQUIVOCATE,
    ) -> None:
        super().__init__(model, adversary_mode=adversary_mode)
        self._service = signatures or SignatureService(model)
        self._keys: Dict[ProcessId, bytes] = {
            pid: self._service.issue_key(pid) for pid in model.processes
        }

    @property
    def signature_service(self) -> SignatureService:
        return self._service

    def execute(
        self,
        phase: Phase,
        inputs: Mapping[ProcessId, object],
        deliver: MicroDeliver,
        ctx: RunContext,
    ) -> DeliveryMatrix:
        coordinator = self.coordinator(phase)

        # Micro-round 1: signed payloads to the coordinator.
        outbound1: MicroOutbound = {}
        for pid, payload in inputs.items():
            if pid in ctx.byzantine and self._mode is WicAdversaryMode.SILENT:
                continue
            signature = self._service.sign(pid, self._keys[pid], payload)
            outbound1[pid] = {coordinator: (payload, signature)}
        delivered1 = deliver(outbound1)

        # Micro-round 2: the coordinator relays the signed set to everyone.
        collected = delivered1.get(coordinator, {})
        entries: List[Tuple[ProcessId, object, Optional[Signature]]] = []
        for sender, item in collected.items():
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[1], Signature)
                and item[1].signer == sender
                and self._service.verify(item[0], item[1])
            ):
                entries.append((sender, item[0], item[1]))
        entries.sort(key=lambda entry: entry[0])

        outbound2: MicroOutbound = {}
        if coordinator in ctx.byzantine:
            if self._mode is WicAdversaryMode.SILENT:
                pass
            elif self._mode is WicAdversaryMode.EQUIVOCATE and len(entries) > 1:
                # Split the vector: even receivers get the first half,
                # odd receivers the second — signatures stay valid, vector
                # equality breaks (Pcons fails, as theory allows).
                half = len(entries) // 2
                outbound2[coordinator] = {
                    dest: _Relay(
                        tuple(entries[:half] if dest % 2 == 0 else entries[half:])
                    )
                    for dest in self._model.processes
                }
            else:
                outbound2[coordinator] = {
                    dest: _Relay(tuple(entries)) for dest in self._model.processes
                }
        else:
            outbound2[coordinator] = {
                dest: _Relay(tuple(entries)) for dest in self._model.processes
            }
        delivered2 = deliver(outbound2)

        # Receivers verify every signature in the relay.
        result: DeliveryMatrix = {}
        for receiver in self._model.processes:
            relay = delivered2.get(receiver, {}).get(coordinator)
            if not isinstance(relay, _Relay):
                continue
            vector: Dict[ProcessId, object] = {}
            for entry in relay.entries:
                if not (isinstance(entry, tuple) and len(entry) == 3):
                    continue
                sender, payload, signature = entry
                if isinstance(signature, Signature) and signature.signer == sender:
                    if self._service.verify(payload, signature):
                        vector[sender] = payload
            result[receiver] = vector
        return result


class SignatureFreeCoordinatorEcho(PconsImplementation):
    """3-round relay + echo (plain Byzantine model, requires ``n > 3b``)."""

    rounds = 3

    def __init__(
        self,
        model: FaultModel,
        *,
        adversary_mode: WicAdversaryMode = WicAdversaryMode.EQUIVOCATE,
    ) -> None:
        if model.n <= 3 * model.b:
            raise ValueError(
                f"signature-free Pcons requires n > 3b, got {model.describe()}"
            )
        super().__init__(model, adversary_mode=adversary_mode)

    def execute(
        self,
        phase: Phase,
        inputs: Mapping[ProcessId, object],
        deliver: MicroDeliver,
        ctx: RunContext,
    ) -> DeliveryMatrix:
        coordinator = self.coordinator(phase)
        everyone = list(self._model.processes)

        # Micro-round 1: payloads to the coordinator.
        outbound1: MicroOutbound = {}
        for pid, payload in inputs.items():
            if pid in ctx.byzantine and self._mode is WicAdversaryMode.SILENT:
                continue
            outbound1[pid] = {coordinator: payload}
        delivered1 = deliver(outbound1)

        # Micro-round 2: the coordinator relays its received vector.
        collected = delivered1.get(coordinator, {})
        entries = tuple(sorted(collected.items(), key=lambda item: item[0]))
        outbound2: MicroOutbound = {}
        if coordinator in ctx.byzantine:
            if self._mode is WicAdversaryMode.SILENT:
                pass
            elif self._mode is WicAdversaryMode.EQUIVOCATE and len(entries) > 1:
                half = len(entries) // 2
                outbound2[coordinator] = {
                    dest: _Relay(
                        tuple(
                            (s, v, None)
                            for s, v in (
                                entries[:half] if dest % 2 == 0 else entries[half:]
                            )
                        )
                    )
                    for dest in everyone
                }
            else:
                outbound2[coordinator] = {
                    dest: _Relay(tuple((s, v, None) for s, v in entries))
                    for dest in everyone
                }
        else:
            outbound2[coordinator] = {
                dest: _Relay(tuple((s, v, None) for s, v in entries))
                for dest in everyone
            }
        delivered2 = deliver(outbound2)

        # Micro-round 3: everyone echoes the relayed vector to everyone.
        outbound3: MicroOutbound = {}
        for pid in everyone:
            if pid in ctx.byzantine and self._mode is not WicAdversaryMode.FOLLOW:
                # Byzantine echoers stay silent in non-FOLLOW modes; an
                # equivocating echoer cannot add entries anyway because of
                # the n − 2b acceptance threshold.
                continue
            relay = delivered2.get(pid, {}).get(coordinator)
            if not isinstance(relay, _Relay):
                continue
            echo = _Echo(
                tuple(
                    (sender, payload)
                    for sender, payload, _sig in relay.entries
                    if isinstance(sender, int)
                )
            )
            outbound3[pid] = {dest: echo for dest in everyone}
        delivered3 = deliver(outbound3)

        # Accept (q, v) iff ≥ n − 2b echoes contain it.
        threshold = self._model.n - 2 * self._model.b
        result: DeliveryMatrix = {}
        for receiver in everyone:
            counts: Dict[Tuple[ProcessId, object], int] = {}
            for echo in delivered3.get(receiver, {}).values():
                if not isinstance(echo, _Echo):
                    continue
                seen = set()
                for entry in echo.entries:
                    if not (isinstance(entry, tuple) and len(entry) == 2):
                        continue
                    try:
                        if entry in seen:
                            continue
                    except TypeError:
                        # An unhashable (Byzantine) payload cannot be
                        # counted: the entry matches nothing.
                        continue
                    seen.add(entry)
                    counts[entry] = counts.get(entry, 0) + 1
            vector: Dict[ProcessId, object] = {}
            for (sender, payload), count in sorted(
                counts.items(), key=lambda item: repr(item[0])
            ):
                if count >= threshold and sender not in vector:
                    vector[sender] = payload
            result[receiver] = vector
        return result
