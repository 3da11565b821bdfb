"""Seeded randomness with named, independent streams.

:class:`SeededRng` derives one ``random.Random`` per name and scope from a
single seed, so that (a) a run is reproducible from one integer and (b)
adding a consumer does not perturb the streams of the others.  Only the
randomized consensus coins (:mod:`repro.core.randomized`) draw from it.  A
scenario's delivery policy and timed network do not:
:func:`~repro.scenarios.compile.compile_scenario` seeds each with
``random.Random(seed)`` — one sequence, read at two offsets — and the batch
tiers mirror exactly that pair.
"""

from __future__ import annotations

import random

from repro.utils.digests import sha256


class SeededRng:
    """A deterministic factory of named random streams.

    Example::

        rng = SeededRng(42)
        coin = rng.stream("coin", process=3)
        other = rng.stream("coin", process=4)
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed of this factory."""
        return self._seed

    def stream(self, name: str, **scope: object) -> random.Random:
        """Return a ``random.Random`` keyed by ``name`` and keyword scope.

        The same (seed, name, scope) triple always yields a stream producing
        the same sequence.
        """
        material = f"{self._seed}:{name}:" + ",".join(
            f"{key}={scope[key]!r}" for key in sorted(scope)
        )
        digest = sha256(material.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))
