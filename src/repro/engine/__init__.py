"""The unified execution kernel: one assembly + scheduler architecture.

The paper's generic algorithm is a single transition system that can be
executed under different *timing disciplines*.  This package factors every
execution path into three orthogonal pieces:

* **Assembly** (:mod:`repro.engine.assembly`) — :func:`build_instance`
  assembles honest processes, Byzantine strategies, and the round structure
  into an :class:`Instance`, exactly once, for every discipline.
* **Scheduling** (:mod:`repro.engine.scheduler`) — a
  :class:`RoundScheduler` decides what each round's send step puts into
  each receiver's inbox: :class:`LockstepScheduler` applies the oracle
  communication predicates of Section 2.1 (:class:`PrelScheduler` the
  ``Prel`` adversary of Section 6); :class:`TimedScheduler` paces rounds with a duration Δ and delivers only
  the messages whose sampled latency meets the round deadline
  (communication-closed rounds over partial synchrony).
* **Observation** (:mod:`repro.engine.kernel` /
  :mod:`repro.engine.outcome`) — the :class:`ExecutionKernel` runs the
  round loop once for all disciplines and reports a unified
  :class:`Outcome`.  ``observe="full"`` records an execution trace with
  per-round predicate evaluations; ``observe="metrics"`` skips all
  per-round record construction — the hot path for campaign sweeps.
* **Batching** (:mod:`repro.engine.batch`) — whole campaign cells execute
  as array programs: seed-independent cells replicate one representative
  run, eligible seed-dependent cells of either engine run the generic
  algorithm as one (runs × processes) array program over delivery masks,
  and everything else falls back to the per-run scalar oracle, byte for
  byte.
"""

from repro.engine.assembly import Instance, build_instance
from repro.engine.kernel import (
    OBSERVE_FULL,
    OBSERVE_METRICS,
    OBSERVE_PROFILE,
    ExecutionKernel,
    run_instance,
)
from repro.engine.outcome import Outcome
from repro.engine.scheduler import (
    LockstepScheduler,
    PrelScheduler,
    RoundDelivery,
    RoundScheduler,
    TimedScheduler,
)

#: Batch-backend names re-exported lazily (PEP 562): this package's core
#: (assembly, kernel, schedulers) is what the algorithm builders are built
#: on, while :mod:`repro.engine.cell` and :mod:`repro.engine.batch` resolve
#: those builders — they load on first use, after the builders can.
_BATCH_EXPORTS = frozenset(
    {
        "BatchPlan",
        "cell_key",
        "plan_cell",
        "plan_for_run",
        "run_batch",
    }
)


def __getattr__(name: str):
    if name in _BATCH_EXPORTS:
        from repro.engine import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BatchPlan",
    "ExecutionKernel",
    "Instance",
    "LockstepScheduler",
    "OBSERVE_FULL",
    "OBSERVE_METRICS",
    "OBSERVE_PROFILE",
    "Outcome",
    "PrelScheduler",
    "RoundDelivery",
    "RoundScheduler",
    "TimedScheduler",
    "build_instance",
    "cell_key",
    "plan_cell",
    "plan_for_run",
    "run_batch",
    "run_instance",
]
