"""Seeded randomness with per-consumer independent streams.

Simulation components (adversaries, latency models, randomized consensus
coins) each derive an independent ``random.Random`` stream from a single run
seed so that (a) whole runs are reproducible from one integer and (b) adding a
new consumer does not perturb the streams of existing consumers.
"""

from __future__ import annotations

import random

from repro.utils.digests import sha256


class SeededRng:
    """A deterministic factory of named random streams.

    Example::

        rng = SeededRng(42)
        coin = rng.stream("coin", process=3)
        net = rng.stream("latency")
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
