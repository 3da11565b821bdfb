"""Adversarial scenario fuzzing: violation hunting over ScenarioSpec space.

The package turns the scenario layer into a violation-hunting instrument:

* :mod:`repro.fuzz.space` — the search space (candidates, seeded
  generation, structured mutation);
* :mod:`repro.fuzz.classify` — execution through the metrics-mode kernel
  (including deliberately-over-bound boundary parameters) and outcome
  classification (safety / liveness / error findings);
* :mod:`repro.fuzz.shrink` — delta-debugging a finding to a minimal
  still-failing spec;
* :mod:`repro.fuzz.corpus` — the crash-safe checkpoint ``<out>.partial``
  a session streams through, and the findings JSONL it completes into;
* :mod:`repro.fuzz.runner` — the deterministic fuzz loop
  (``repro fuzz run|replay|shrink`` on the CLI).
"""

from repro.fuzz.classify import (
    BOUNDARY_CLASSES,
    FINDING_KINDS,
    OVER_BOUND_MODES,
    Verdict,
    boundary_parameters,
    candidate_seed,
    classify_candidate,
    classify_row,
    execute_candidate,
    liveness_eligible,
)
from repro.fuzz.corpus import read_checkpoint, scan_findings
from repro.fuzz.runner import (
    FuzzConfig,
    FuzzSummary,
    build_record,
    candidate_at,
    record_over_bound,
    replay_finding,
    run_fuzz,
    shrunk_fields,
    state_header,
    write_state,
)
from repro.fuzz.shrink import ShrinkResult, shrink_candidate
from repro.fuzz.space import (
    DEFAULT_ALGORITHMS,
    DEFAULT_ENGINES,
    DEFAULT_STRATEGIES,
    FuzzCandidate,
    FuzzSpace,
    generate,
    mutate,
    suggest_phases,
)

__all__ = [
    "BOUNDARY_CLASSES",
    "DEFAULT_ALGORITHMS",
    "DEFAULT_ENGINES",
    "DEFAULT_STRATEGIES",
    "FINDING_KINDS",
    "FuzzCandidate",
    "FuzzConfig",
    "FuzzSpace",
    "FuzzSummary",
    "OVER_BOUND_MODES",
    "ShrinkResult",
    "Verdict",
    "boundary_parameters",
    "build_record",
    "candidate_at",
    "candidate_seed",
    "classify_candidate",
    "classify_row",
    "execute_candidate",
    "generate",
    "liveness_eligible",
    "mutate",
    "read_checkpoint",
    "record_over_bound",
    "replay_finding",
    "run_fuzz",
    "scan_findings",
    "shrink_candidate",
    "shrunk_fields",
    "state_header",
    "suggest_phases",
    "write_state",
]
