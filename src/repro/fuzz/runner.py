"""The fuzz loop: seeded search, classification, shrinking, checkpointing.

One fuzz run walks candidate indices ``0 .. budget-1``.  At index ``i`` a
fresh :class:`random.Random` is derived from ``(seed, i)``; with probability
:data:`MUTATE_PROB` (and a non-empty corpus) the candidate is a structured
mutation of a previously-found failing candidate, otherwise a fresh sample.
Duplicates (by coordinate key) are skipped without executing but still
consume their index — so candidate ``i`` is a pure function of
``(config, findings before i)``, which is the whole resumability story:
replaying generation (cheap, no execution) rebuilds the dedup set and the
mutation sources at any interruption point, and re-running the remaining
indices produces byte-identical findings.

Findings are shrunk immediately (:mod:`repro.fuzz.shrink`, at most
:data:`~repro.fuzz.shrink.DEFAULT_MAX_ATTEMPTS` reproductions each).  Every
candidate appends one line to the checkpoint ``<out>.partial``
(:func:`write_state`): its finding's record, fsynced, or else its bare
index, so a finding and its acknowledgement are one write and the only
crash window is a torn tail (see :mod:`repro.fuzz.corpus`).  A fresh
session starts the checkpoint with its header (:func:`state_header`); a
resume, validated first by :func:`~repro.fuzz.corpus.read_checkpoint`,
appends after its last line.  A completed session renames its records into
``<out>`` and removes the checkpoint.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.cell import derive_seed
from repro.fuzz.classify import (
    OVER_BOUND_MODES,
    Verdict,
    candidate_seed,
    classify_candidate,
)
from repro.fuzz.shrink import DEFAULT_MAX_ATTEMPTS, ShrinkResult, shrink_candidate
from repro.fuzz.space import FuzzCandidate, FuzzSpace, generate, mutate
from repro.utils.jsonl import Appender, canonical, checkpoint_path, replace

#: Called after each candidate with ``(index, budget, findings_so_far)``.
ProgressFn = Callable[[int, int, int], None]

#: Probability that a candidate mutates a prior finding (once there is one)
#: instead of sampling fresh.
MUTATE_PROB = 0.5


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that determines a fuzz run's candidate/finding stream."""

    space: FuzzSpace = field(default_factory=FuzzSpace)
    seed: int = 0
    budget: int = 100
    over_bound: str = "never"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be ≥ 1, got {self.budget}")
        if self.over_bound not in OVER_BOUND_MODES:
            raise ValueError(
                f"unknown over_bound mode {self.over_bound!r}; "
                f"known: {OVER_BOUND_MODES}"
            )


def candidate_at(
    config: FuzzConfig, index: int, sources: List[FuzzCandidate]
) -> FuzzCandidate:
    """The candidate at ``index`` given the findings discovered before it."""
    rng = Random(derive_seed(config.seed, f"fuzz-cand:{index}"))
    if sources and rng.random() < MUTATE_PROB:
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
    #: Findings in the corpus, those earlier sessions recorded included,
    #: and their count by kind.
    findings: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    interrupted: bool = False  # --stop-after tripped (checkpoint retained)
    next_index: int = 0
    #: What a resume recovered: candidates the checkpoint recorded
    #: (``None``: a fresh run) and the findings among them.
    resumed_at: Optional[int] = None
    kept: int = 0


def state_header(config: FuzzConfig) -> Dict[str, object]:
    """The checkpoint's header: every :class:`FuzzConfig` field (the
    space as its fingerprint) and the fixed knobs that shape the stream —
    what a resume must find unchanged."""
    header = {each.name: getattr(config, each.name) for each in fields(config)}
    header["space"] = config.space.fingerprint()
    return dict(header, mutate_prob=MUTATE_PROB, shrink_attempts=DEFAULT_MAX_ATTEMPTS)


def write_state(partial: Appender, index: int, record: Optional[Dict[str, object]]) -> None:
    """Record candidate ``index`` on the checkpoint: its finding's canonical
    line, fsynced before the next candidate runs, or else the bare
    acknowledgement ``index`` (no fsync: a process death keeps what the
    kernel has, and a lost one re-runs a candidate that found nothing)."""
    if record is None:
        partial.write(b"%d\n" % index)
    else:
        partial.write(canonical(record).encode() + b"\n")
        partial.sync()


def _rebuild_history(
    config: FuzzConfig, start: int, records: List[Dict[str, object]]
) -> tuple:
    """Replay candidate *generation* for indices before ``start``.

    No execution happens — generation is pure python over derived RNGs —
    but the dedup set and the mutation-source list come out exactly as the
    interrupted session had them, so the continuation is byte-identical
    to an undisturbed run.
    """
    found = {record["index"]: record["candidate"] for record in records}
    seen: set = set()
    sources: List[FuzzCandidate] = []
    for index in range(start):
        seen.add(candidate_at(config, index, sources).key())
        if index in found:
            sources.append(FuzzCandidate.from_mapping(found[index]))
    return seen, sources


def run_fuzz(
    config: FuzzConfig,
    out: object,
    *,
    resume: Optional[Tuple[int, List[Dict[str, object]]]] = None,
    stop_after: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> FuzzSummary:
    """Run (or resume) one fuzz session whose corpus is ``out``.

    The session streams into the checkpoint ``<out>.partial``, one line per
    candidate, so interrupting at any point — including
    ``KeyboardInterrupt`` mid-execution, which this function deliberately
    lets propagate — leaves a valid checkpoint.  A fresh session starts it
    with :func:`state_header` (replacing any checkpoint there); ``resume``
    is what :func:`~repro.fuzz.corpus.read_checkpoint` recovered from it
    for this ``config``, and the session appends after it.  On completion
    the records are renamed into ``out`` and the checkpoint is removed;
    ``out`` is not touched before.  ``stop_after`` bounds the candidates
    *this session* runs (the ``--stop-after`` CLI contract); when it
    trips, the summary says ``interrupted`` and the checkpoint stays, even
    if the budget is reached.
    """
    out_path = Path(str(out))
    start, recorded = resume or (0, [])
    records = list(recorded)
    seen, sources = _rebuild_history(config, start, records)
    summary = FuzzSummary(next_index=start, kept=len(records))
    if resume is not None:
        summary.resumed_at = start
    with Appender(
        checkpoint_path(out_path), None if resume else state_header(config)
    ) as partial:
        for index in range(start, config.budget):
            candidate = candidate_at(config, index, sources)
            key = candidate.key()
            record = None
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
                    shrunk = shrink_candidate(
                        candidate,
                        verdict.kind,
                        fuzz_seed=config.seed,
                        over_bound=config.over_bound,
                    )
                    record.update(shrunk_fields(config.seed, shrunk))
                    records.append(record)
                    sources.append(candidate)
                elif verdict.status == "ok":
                    summary.ok += 1
                else:
                    summary.skipped += 1
            write_state(partial, index, record)
            summary.next_index = index + 1
            if progress is not None:
                progress(index + 1, config.budget, len(records))
            if stop_after is not None and index + 1 - start >= stop_after:
                summary.interrupted = True
                break
    summary.findings = len(records)
    summary.by_kind = dict(Counter(str(record["kind"]) for record in records))
    if not summary.interrupted:
        replace(out_path, (canonical(record).encode() + b"\n" for record in records))
        checkpoint_path(out_path).unlink()
    return summary
