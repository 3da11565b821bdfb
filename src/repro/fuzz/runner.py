"""The fuzz loop: seeded search, classification, shrinking, checkpointing.

One fuzz run walks candidate indices ``0 .. budget-1``.  At index ``i`` a
fresh :class:`random.Random` is derived from ``(seed, i)``; with probability
``mutate_prob`` (and a non-empty corpus) the candidate is a structured
mutation of a previously-found failing candidate, otherwise a fresh sample.
Duplicates (by coordinate key) are skipped without executing but still
consume their index — so candidate ``i`` is a pure function of
``(config, findings before i)``, which is the whole resumability story:
replaying generation (cheap, no execution) rebuilds the dedup set and the
mutation sources at any interruption point, and re-running the remaining
indices produces byte-identical findings.

Findings are shrunk immediately (:mod:`repro.fuzz.shrink`), appended to the
JSONL corpus, and acknowledged *after* the append by one line appended to
the state journal — the crash window between the two is healed on resume
by truncating unacknowledged records (see :mod:`repro.fuzz.corpus`).  A
session renames two files into place, once each when it starts: the
corpus (empty, or the acknowledged findings on a resume) and the journal's
header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Optional

from repro.engine.cell import derive_seed
from repro.fuzz.classify import (
    OVER_BOUND_MODES,
    Verdict,
    candidate_seed,
    classify_candidate,
)
from repro.fuzz.corpus import (
    STATE_VERSION,
    open_journal,
    read_state,
    state_path,
    truncate_findings,
    write_state,
)
from repro.fuzz.shrink import DEFAULT_MAX_ATTEMPTS, ShrinkResult, shrink_candidate
from repro.fuzz.space import FuzzCandidate, FuzzSpace, generate, mutate
from repro.utils.jsonl import Appender, canonical, replace

#: Called after each candidate with ``(index, budget, findings_so_far)``.
ProgressFn = Callable[[int, int, int], None]


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that determines a fuzz run's candidate/finding stream."""

    space: FuzzSpace = field(default_factory=FuzzSpace)
    seed: int = 0
    budget: int = 100
    over_bound: str = "never"
    mutate_prob: float = 0.5
    shrink: bool = True
    shrink_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be ≥ 1, got {self.budget}")
        if self.over_bound not in OVER_BOUND_MODES:
            raise ValueError(
                f"unknown over_bound mode {self.over_bound!r}; "
                f"known: {OVER_BOUND_MODES}"
            )
        if not 0.0 <= self.mutate_prob <= 1.0:
            raise ValueError(
                f"mutate_prob must be in [0, 1], got {self.mutate_prob}"
            )


def candidate_at(
    config: FuzzConfig, index: int, sources: List[FuzzCandidate]
) -> FuzzCandidate:
    """The candidate at ``index`` given the findings discovered before it."""
    rng = Random(derive_seed(config.seed, f"fuzz-cand:{index}"))
    if sources and rng.random() < config.mutate_prob:
        source = sources[rng.randrange(len(sources))]
        return mutate(config.space, source, rng)
    return generate(config.space, rng)


def build_record(
    config: FuzzConfig, index: int, candidate: FuzzCandidate, verdict: Verdict
) -> Dict[str, object]:
    """The corpus record for one finding (pre-shrink)."""
    row = verdict.row
    error = row.get("error")
    return {
        "index": index,
        "kind": verdict.kind,
        "violated": list(verdict.violated),
        "over_bound": bool(row.get("over_bound")),
        "candidate": candidate.to_mapping(),
        "key": candidate.key(),
        "seed": candidate_seed(config.seed, candidate),
        "fuzz_seed": config.seed,
        "result": {
            "status": row.get("status"),
            "agreement": row.get("agreement"),
            "validity": row.get("validity"),
            "unanimity": row.get("unanimity"),
            "termination": row.get("termination"),
            "decided": row.get("decided"),
            "rounds": row.get("rounds"),
            # Head line only: enough to identify an engine error, stable
            # across machines (no absolute paths from traceback frames).
            "error": str(error).split("\n", 1)[0] if error else None,
        },
    }


def shrunk_fields(fuzz_seed: int, shrunk: ShrinkResult) -> Dict[str, object]:
    """The five ``shrunk*`` fields a shrink adds to a finding's record."""
    return {
        "shrunk": shrunk.candidate.to_mapping(),
        "shrunk_key": shrunk.candidate.key(),
        "shrunk_seed": candidate_seed(fuzz_seed, shrunk.candidate),
        "shrink_ops": list(shrunk.ops),
        "shrink_attempts": shrunk.attempts,
    }


def record_over_bound(record: Dict[str, object]) -> str:
    """The ``over_bound`` mode that re-executes a record's candidate as it
    was found: past its resilience bound exactly when it ran there."""
    return "allow" if record.get("over_bound") else "never"


def replay_finding(
    record: Dict[str, object], *, shrunk: bool = False
) -> Verdict:
    """Re-execute a corpus record's candidate (original or shrunk form).

    The record is self-contained: candidate coordinates, content-derived
    seed and the over-bound regime all come from the record itself, so a
    finding replays identically on any checkout of the same code.
    """
    mapping = record["shrunk"] if shrunk else record["candidate"]
    candidate = FuzzCandidate.from_mapping(mapping)
    seed = int(record["shrunk_seed"] if shrunk else record["seed"])
    return classify_candidate(
        candidate, seed, over_bound=record_over_bound(record)
    )


@dataclass
class FuzzSummary:
    """What one (possibly partial) fuzz session did."""

    executed: int = 0
    duplicates: int = 0
    skipped: int = 0  # inadmissible / inapplicable / over-bound-skipped
    ok: int = 0
    findings: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    interrupted: bool = False  # --stop-after tripped (checkpoint retained)
    next_index: int = 0
    #: What a resume recovered: candidates the journal acknowledged
    #: (``None``: a fresh run), findings kept, unacknowledged records dropped.
    resumed_at: Optional[int] = None
    kept: int = 0
    dropped: int = 0


def _fresh_state(config: FuzzConfig, next_index: int, findings: int) -> Dict[str, object]:
    return {
        "version": STATE_VERSION,
        "seed": config.seed,
        "budget": config.budget,
        "next": next_index,
        "findings": findings,
        "space": config.space.fingerprint(),
        "over_bound": config.over_bound,
        "mutate_prob": config.mutate_prob,
        "shrink": config.shrink,
    }


def _validate_state(config: FuzzConfig, state: Dict[str, object]) -> None:
    expected = _fresh_state(config, 0, 0)
    for key in ("seed", "budget", "space", "over_bound", "mutate_prob", "shrink"):
        if state.get(key) != expected[key]:
            raise ValueError(
                f"fuzz state was written by a different configuration "
                f"({key}: state has {state.get(key)!r}, "
                f"this run has {expected[key]!r})"
            )


def _rebuild_history(
    config: FuzzConfig,
    start: int,
    records: List[Dict[str, object]],
) -> tuple:
    """Replay candidate *generation* for indices before ``start``.

    No execution happens — generation is pure python over derived RNGs —
    but the dedup set and the mutation-source list come out exactly as the
    interrupted session had them, so the continuation is byte-identical
    to an undisturbed run.
    """
    seen: set = set()
    sources: List[FuzzCandidate] = []
    pointer = 0
    ordered = sorted(records, key=lambda r: int(r["index"]))
    for index in range(start):
        while pointer < len(ordered) and int(ordered[pointer]["index"]) < index:
            sources.append(
                FuzzCandidate.from_mapping(ordered[pointer]["candidate"])
            )
            pointer += 1
        seen.add(candidate_at(config, index, sources).key())
    while pointer < len(ordered):
        sources.append(FuzzCandidate.from_mapping(ordered[pointer]["candidate"]))
        pointer += 1
    return seen, sources


def run_fuzz(
    config: FuzzConfig,
    out: object,
    *,
    resume: bool = False,
    stop_after: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> FuzzSummary:
    """Run (or resume) one fuzz session against the corpus at ``out``.

    The state journal gains one acknowledgement per candidate, so
    interrupting at any point — including ``KeyboardInterrupt``
    mid-execution, which this function deliberately lets propagate — leaves
    a valid checkpoint.  On natural completion the sidecar is removed and
    the findings file is the run's canonical product.  ``stop_after``
    bounds the number of candidates *this session* executes (the
    ``--stop-after`` CLI contract); when it trips, the summary says
    ``interrupted`` and the checkpoint stays.

    Raises ``FileExistsError`` when a state file exists and ``resume`` is
    unset, and ``ValueError`` when a resume is incompatible or impossible.
    """
    out_path = Path(str(out))
    sidecar = state_path(out_path)
    summary = FuzzSummary()
    records: List[Dict[str, object]] = []
    seen: set = set()
    sources: List[FuzzCandidate] = []
    start = 0

    if resume:
        if not sidecar.exists():
            raise ValueError(f"nothing to resume: no state at {sidecar}")
        state = read_state(sidecar)
        _validate_state(config, state)
        start = state["next"]
        records, summary.dropped = truncate_findings(
            out_path, start, state["findings"]
        )
        summary.resumed_at, summary.kept = start, len(records)
        seen, sources = _rebuild_history(config, start, records)
    elif sidecar.exists():
        raise FileExistsError(
            f"fuzz state {sidecar} already exists; pass --resume to "
            f"complete it or delete it to start over"
        )
    else:
        replace(out_path, ())  # a fresh session starts an empty corpus

    summary.next_index = start
    # The corpus is written first: an unwritable ``out`` leaves no sidecar.
    # A resume's header restarts the journal at the recovery point, which
    # heals a torn tail and compacts the acknowledgements behind it.
    with Appender(out_path) as corpus, open_journal(
        sidecar, _fresh_state(config, start, len(records))
    ) as journal:
        for index in range(start, config.budget):
            candidate = candidate_at(config, index, sources)
            key = candidate.key()
            if key in seen:
                summary.duplicates += 1
            else:
                seen.add(key)
                verdict = classify_candidate(
                    candidate,
                    candidate_seed(config.seed, candidate),
                    over_bound=config.over_bound,
                )
                summary.executed += 1
                if verdict.is_finding:
                    record = build_record(config, index, candidate, verdict)
                    if config.shrink:
                        shrunk = shrink_candidate(
                            candidate,
                            verdict.kind,
                            fuzz_seed=config.seed,
                            over_bound=config.over_bound,
                            max_attempts=config.shrink_attempts,
                        )
                        record.update(shrunk_fields(config.seed, shrunk))
                    corpus.write(canonical(record).encode() + b"\n")
                    corpus.sync()
                    records.append(record)
                    sources.append(candidate)
                    summary.findings += 1
                    kind = str(verdict.kind)
                    summary.by_kind[kind] = summary.by_kind.get(kind, 0) + 1
                elif verdict.status == "ok":
                    summary.ok += 1
                else:
                    summary.skipped += 1
            # Acknowledge the candidate only after its finding (if any) is
            # durably in the corpus: the crash window leaves at most one
            # unacknowledged record, healed by truncation on resume.
            summary.next_index = index + 1
            write_state(journal, index + 1, len(records))
            if progress is not None:
                progress(index + 1, config.budget, len(records))
            if (
                stop_after is not None
                and (index + 1 - start) >= stop_after
                and index + 1 < config.budget
            ):
                summary.interrupted = True
                return summary

    sidecar.unlink(missing_ok=True)
    return summary
