"""Discrete-event timed execution (partial synchrony with a GST).

The lockstep discipline measures progress in *rounds*; this package
measures it in *simulated time*.  Processes still run the round model, but
rounds are paced by a round duration Δ and messages take sampled latencies;
before the global stabilization time (GST) latencies are unbounded (the
asynchronous period of [7]), after GST they are bounded by δ < Δ, so rounds
become good.  Execution goes through the unified kernel
(:mod:`repro.engine`) under a
:class:`~repro.engine.scheduler.TimedScheduler`; this package provides the
network/latency models.
"""

from repro.eventsim.events import EventQueue, TimedEvent
from repro.eventsim.network import (
    FixedLatency,
    LatencyModel,
    PartialSynchronyNetwork,
    UniformLatency,
)

__all__ = [
    "EventQueue",
    "FixedLatency",
    "LatencyModel",
    "PartialSynchronyNetwork",
    "TimedEvent",
    "UniformLatency",
]
