"""Communication-closed round model substrate (paper Section 2.1).

This package provides the execution vocabulary the paper's algorithms are
expressed in: processes exposing per-round send/transition functions,
delivery oracles realizing the communication predicates ``Pgood`` /
``Pcons`` / ``Prel`` (:mod:`repro.rounds.policies`), predicate checkers,
and good/bad period schedules modelling partial synchrony.  The round loop
and the schedulers that apply the oracles live in the unified execution
kernel (:mod:`repro.engine`).
"""

from repro.rounds.base import RoundProcess, RunContext
from repro.rounds.predicates import check_pcons, check_pgood, check_prel
from repro.rounds.schedule import GoodBadSchedule

__all__ = [
    "GoodBadSchedule",
    "RoundProcess",
    "RoundStructure",
    "RunContext",
    "check_pcons",
    "check_pgood",
    "check_prel",
]


def __getattr__(name: str):
    # Lazy (PEP 562) because :mod:`repro.core.process` imports
    # ``rounds.base`` at module load — an eager re-export here would be a
    # cycle.  ``RoundStructure`` is the phase → round-sequence map that the
    # batch backend's columnar-state tier compiles its per-round templates
    # from, so it belongs in the round-model vocabulary this package
    # presents even though the class lives beside the algorithm state.
    if name == "RoundStructure":
        from repro.core.process import RoundStructure

        return RoundStructure
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
