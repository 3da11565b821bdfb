"""Implementations of ``Pcons`` out of ``Pgood`` (paper Section 2.2).

The paper relies on [17] (Milosevic-Hutle-Schiper, WIC) and [2]
(Borran-Schiper) for realizing the ``Pcons`` predicate from ``Pgood``:

* with **authenticated** Byzantine faults (signed messages): 2 extra rounds
  per selection round — :class:`~repro.network.wic.AuthenticatedCoordinatorEcho`;
* with plain **Byzantine** faults (no signatures): 3 extra rounds —
  :class:`~repro.network.wic.SignatureFreeCoordinatorEcho`.

:mod:`repro.network.stack` runs the generic consensus algorithm under a
scheduler whose expanded round schedule realizes each selection round by one
of these sub-protocols instead of an oracle ``Pcons`` policy.
"""

from repro.network.signatures import Signature, SignatureError, SignatureService
from repro.network.stack import (
    PconsStackOutcome,
    PconsStackScheduler,
    run_with_pcons_stack,
)
from repro.network.wic import (
    AuthenticatedCoordinatorEcho,
    PconsImplementation,
    SignatureFreeCoordinatorEcho,
    WicAdversaryMode,
)

__all__ = [
    "AuthenticatedCoordinatorEcho",
    "PconsImplementation",
    "PconsStackOutcome",
    "PconsStackScheduler",
    "Signature",
    "SignatureError",
    "SignatureService",
    "SignatureFreeCoordinatorEcho",
    "WicAdversaryMode",
    "run_with_pcons_stack",
]
