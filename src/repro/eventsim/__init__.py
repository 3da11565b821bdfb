"""Discrete-event timed execution (partial synchrony with a GST).

The lockstep discipline measures progress in *rounds*; this package
measures it in *simulated time*.  Processes still run the round model, but
rounds are paced by a round duration Δ and messages take sampled latencies;
before the global stabilization time (GST) latencies are unbounded (the
asynchronous period of [7]), after GST they are bounded by δ < Δ, so rounds
become good.  A :class:`~repro.eventsim.network.NetworkSpec` describes such
a network and ``spec.build(seed)`` gives one run its
:class:`~repro.eventsim.network.PartialSynchronyNetwork`; execution goes
through the unified kernel (:mod:`repro.engine`) under a
:class:`~repro.engine.scheduler.TimedScheduler`, which reads Δ from the
spec.  :class:`~repro.eventsim.events.EventQueue` is the ordered-arrival
queue of the scheduler's reference (heap) path.
"""

from repro.eventsim.events import EventQueue, TimedEvent
from repro.eventsim.network import NetworkSpec, PartialSynchronyNetwork

__all__ = [
    "EventQueue",
    "NetworkSpec",
    "PartialSynchronyNetwork",
    "TimedEvent",
]
