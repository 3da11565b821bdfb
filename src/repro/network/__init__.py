"""Implementations of ``Pcons`` out of ``Pgood`` (paper Section 2.2).

The paper relies on [17] (Milosevic-Hutle-Schiper, WIC) and [2]
(Borran-Schiper) for realizing the ``Pcons`` predicate from ``Pgood``:

* with **authenticated** Byzantine faults (signed messages): 2 extra rounds
  per selection round — :class:`~repro.network.wic.AuthenticatedCoordinatorEcho`;
* with plain **Byzantine** faults (no signatures): 3 extra rounds —
  :class:`~repro.network.wic.SignatureFreeCoordinatorEcho`.

:mod:`repro.network.stack` holds the scheduler whose expanded round schedule
realizes each selection round by one of these sub-protocols instead of an
oracle ``Pcons`` policy: the ``pcons-auth`` / ``pcons-sigfree`` engines of
:func:`~repro.scenarios.compile.compile_scenario`.
"""

from repro.network.signatures import Signature, SignatureError, SignatureService
from repro.network.stack import PconsStackScheduler
from repro.network.wic import (
    AuthenticatedCoordinatorEcho,
    PconsImplementation,
    SignatureFreeCoordinatorEcho,
    WicAdversaryMode,
)

__all__ = [
    "AuthenticatedCoordinatorEcho",
    "PconsImplementation",
    "PconsStackScheduler",
    "Signature",
    "SignatureError",
    "SignatureService",
    "SignatureFreeCoordinatorEcho",
    "WicAdversaryMode",
]
