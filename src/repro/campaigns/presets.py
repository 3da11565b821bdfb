"""Built-in named campaigns reproducing the paper's tables and figures.

Each preset is a :class:`~repro.campaigns.spec.CampaignSpec` runnable as
``repro campaign run <name>``:

* ``table1`` — every named algorithm crossed with every class-minimal
  model: admitted exactly on its own Table-1 row, ``inadmissible``
  elsewhere;
* ``fig1-flv-class1`` / ``fig2-flv-class2`` / ``fig3-flv-class3`` — the
  per-class resilience sweeps over ``n`` for ``b = 1`` under the Byzantine
  scenario battery :data:`BYZANTINE_SCENARIOS` (the constructive FaB
  ``n > 5b`` / MQB ``n > 4b`` / PBFT ``n > 3b`` frontiers, below-bound
  models as ``inadmissible`` rows);
* ``latency-gst`` — the timed-engine GST sensitivity curve (decision time
  tracks the global stabilization time);
* ``grid-demo`` — a fast ≥ 100-run mixed lockstep/timed grid used by the
  acceptance check and the quickstart;
* ``gauntlet`` — every scenario registered in
  :data:`~repro.scenarios.registry.SCENARIO_REGISTRY` crossed with every
  FLV algorithm class on both engines: the disruption-tolerance sweep
  (partitions, GST prefixes, loss, withholding, crash storms) in one grid.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.campaigns.spec import CampaignSpec, NetworkSpec
from repro.scenarios.registry import SCENARIO_REGISTRY
from repro.scenarios.spec import ScenarioSpec

#: The adversarial battery of the per-class figure sweeps: one strategy
#: name per scenario, placed on all ``b`` Byzantine slots.
BYZANTINE_SCENARIOS: Tuple[str, ...] = (
    "silent",
    "equivocator",
    "vote-flipper",
    "high-ts-liar",
    "fake-history-liar",
)


def _byz(*names: str) -> Tuple[ScenarioSpec, ...]:
    """One scenario per strategy, placed on all ``b`` slots."""
    return tuple(ScenarioSpec(name=name, byzantine=(name,)) for name in names)


BUILTIN_CAMPAIGNS: Dict[str, CampaignSpec] = {
    "table1": CampaignSpec(
        name="table1",
        algorithms=(
            "one-third-rule", "fab-paxos", "mqb",
            "paxos", "chandra-toueg", "pbft",
        ),
        models=((4, 0, 1), (6, 1, 0), (5, 1, 0), (3, 0, 1), (4, 1, 0)),
        scenarios=("fault-free", *_byz("equivocator"),
                   ScenarioSpec(name="crash-f", crashes=-1)),
        max_phases=12,
    ),
    "fig1-flv-class1": CampaignSpec(
        name="fig1-flv-class1",
        algorithms=("class-1",),
        models=tuple((n, 1, 0) for n in range(4, 10)),
        scenarios=_byz(*BYZANTINE_SCENARIOS),
        max_phases=8,
    ),
    "fig2-flv-class2": CampaignSpec(
        name="fig2-flv-class2",
        algorithms=("class-2",),
        models=tuple((n, 1, 0) for n in range(3, 9)),
        scenarios=_byz(*BYZANTINE_SCENARIOS),
        max_phases=8,
    ),
    "fig3-flv-class3": CampaignSpec(
        name="fig3-flv-class3",
        algorithms=("class-3",),
        models=tuple((n, 1, 0) for n in range(2, 8)),
        scenarios=_byz(*BYZANTINE_SCENARIOS),
        max_phases=8,
    ),
    "latency-gst": CampaignSpec(
        name="latency-gst",
        algorithms=("pbft",),
        models=((4, 1, 0),),
        engines=("timed",),
        scenarios=tuple(
            ScenarioSpec(
                name=f"gst-{gst:g}",
                byzantine=("equivocator",),
                timing=NetworkSpec(gst=gst, pre_gst_delay_prob=0.85),
            )
            for gst in (0.0, 10.0, 20.0, 30.0)
        ),
        repetitions=5,
        seed=11,
        max_phases=40,
    ),
    "gauntlet": CampaignSpec(
        name="gauntlet",
        algorithms=("class-1", "class-2", "class-3"),
        # (7,1,1) admits classes 2-3, (9,1,1) all three (n > 5b + 3f);
        # f = 1 gives the crash scenarios room on both engines.
        models=((7, 1, 1), (9, 1, 1)),
        engines=("lockstep", "timed"),
        scenarios=tuple(sorted(SCENARIO_REGISTRY)),
        max_phases=18,
        seed=5,
    ),
    "grid-demo": CampaignSpec(
        name="grid-demo",
        algorithms=("class-1", "class-2", "class-3"),
        models=((4, 1, 0), (5, 1, 0), (6, 1, 0)),
        engines=("lockstep", "timed"),
        scenarios=("fault-free", *_byz("equivocator", "silent")),
        repetitions=2,
        max_phases=10,
    ),
}
