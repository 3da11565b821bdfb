"""The cell vocabulary: one run of one ``(algorithm, model, engine,
scenario)`` coordinate, its seed, its admission and its result row.

The paper's algorithm is fixed by ``(FLV, Selector, TD, FLAG)`` and a cell
is admissible exactly when the instantiated class's Table 1 / Theorem 1
bound holds for its fault model.  Everything that executes cells — the
campaign runner and its batch tiers, the fuzzer, the SMR serving loop, the
CLI's single-run commands — shares the names defined here and the one
admission step, so no two of them can disagree on whether a cell runs or
on what its rejection says:

* :class:`RunSpec` / :func:`derive_seed` / :func:`cell_key` — a run, its
  coordinate-derived seed, and the cell it belongs to;
* :class:`CellSlice` / :class:`GroupedRows` — how a cell crosses a process
  boundary as a cell: its coordinates once plus repetition indices on the
  way down, one row plus ``(rep, run_id, seed)`` coordinates on the way up;
* :func:`admit` — ``FaultModel`` construction → algorithm resolution →
  hosted-envelope check, memoized per worker process;
* :func:`open_row` — the result row every execution starts from, already
  carrying the verdict when the cell is rejected;
* the four ``STATUS_*`` names, :func:`rejection_verdict` and
  :func:`describe_error` for the rows' ``status`` / ``error`` columns.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.algorithms.registry import resolve_algorithm
from repro.core.parameters import (
    ConsensusParameters,
    GenericConsensusConfig,
    ParameterError,
)
from repro.core.types import FaultModel
from repro.scenarios.spec import ScenarioSpec
from repro.utils.digests import blake2b
from repro.utils.memo import cached_outcome

#: Result-row type: one flat JSON-serializable mapping per run.
Row = Dict[str, object]

#: ``(rep, run_id, seed)``: the three row fields that tell a cell's runs
#: apart, in the order the canonical (sorted-key) JSON line carries them.
Coords = Tuple[int, int, int]

#: One entry of :class:`GroupedRows`: a row alone (``None``), or the row
#: standing for every run whose coordinates are listed.
RowPart = Tuple[Row, Optional[Sequence[Coords]]]

#: What :func:`admit` hands back for an admissible cell.
Admitted = Tuple[FaultModel, ConsensusParameters, GenericConsensusConfig]

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_INADMISSIBLE = "inadmissible"
STATUS_INAPPLICABLE = "inapplicable"


def derive_seed(campaign_seed: int, key: str) -> int:
    """A 63-bit per-run seed from the campaign seed and a coordinate key.

    Uses BLAKE2b (not :func:`hash`, which is salted per interpreter) so the
    derivation is stable across processes, Python versions and worker
    counts.  The hash is CPython's builtin one from
    :mod:`repro.utils.digests`, so deriving seeds loads no OpenSSL.
    """
    digest = blake2b(
        f"{campaign_seed}:{key}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved cell of the campaign grid."""

    campaign: str
    run_id: int
    algorithm: str
    n: int
    b: int
    f: int
    engine: str
    scenario: ScenarioSpec
    rep: int
    seed: int
    max_phases: int

    def key(self) -> str:
        """Stable coordinate string (the seed-derivation input); the fault
        and network slots carry the scenario's two describe strings."""
        return cell_key_prefix(
            self.algorithm, self.n, self.b, self.f, self.engine, self.scenario
        ) + f"rep{self.rep}"


def cell_key_prefix(
    algorithm: str, n: int, b: int, f: int, engine: str, scenario: ScenarioSpec
) -> str:
    """The part of :meth:`RunSpec.key` a cell's repetitions share."""
    return "|".join(
        (
            algorithm,
            f"n{n}b{b}f{f}",
            engine,
            scenario.describe_fault(),
            scenario.describe_network(),
        )
    ) + "|"


@dataclass(frozen=True)
class CellSlice(SequenceABC):
    """Some repetitions of one campaign cell: a lazy ``Sequence[RunSpec]``.

    This is what a dispatch chunk pickles — one run for the cell's
    coordinates plus repetition indices (a ``range``, or what ``--resume``
    left of one) — so a chunk's size does not grow with ``repetitions``, and
    each :class:`RunSpec` with its derived seed is built by whoever iterates.
    """

    first: RunSpec  # the cell's repetition 0
    campaign_seed: int
    reps: Sequence[int]

    def __len__(self) -> int:
        return len(self.reps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return replace(self, reps=self.reps[index])
        return next(iter(replace(self, reps=(self.reps[index],))))

    def coords(self) -> Iterator[Coords]:
        """Each run's ``(rep, run_id, seed)``, no :class:`RunSpec` built."""
        prefix = cell_key_prefix(*cell_key(self.first))
        for rep in self.reps:
            seed = derive_seed(self.campaign_seed, f"{prefix}rep{rep}")
            yield rep, self.first.run_id + rep, seed

    def __iter__(self) -> Iterator[RunSpec]:
        first = self.first
        for rep, run_id, seed in self.coords():
            yield RunSpec(
                first.campaign, run_id, *cell_key(first), rep, seed,
                first.max_phases,
            )


def cell_coords(runs: Sequence[RunSpec]) -> List[Coords]:
    """The ``(rep, run_id, seed)`` of each of one cell's runs."""
    if isinstance(runs, CellSlice):
        return list(runs.coords())
    return [(run.rep, run.run_id, run.seed) for run in runs]


def expand_part(row: Row, coords: Optional[Sequence[Coords]]) -> Iterator[Row]:
    """The rows one :data:`RowPart` stands for, in run order."""
    if coords is None:
        yield row
    else:
        for rep, run_id, seed in coords:
            yield dict(row, rep=rep, run_id=run_id, seed=seed)


@dataclass
class GroupedRows(SequenceABC):
    """Result rows in run order, stored by group: a ``Sequence[Row]``.

    ``parts`` holds one ``(row, coords)`` per group.  A tier that has
    *proved* a cell's rows equal but for ``(rep, run_id, seed)`` (the
    planner's seed-independence proof, or a rejection memoized per cell)
    emits the row once with every run's coordinates; any other row is its
    own part, ``coords`` ``None``.  Length, indexing and iteration are the
    flattened row list's; the campaign's loop, sink and fold move ``parts``.
    """

    parts: List[RowPart]

    def __len__(self) -> int:
        return sum(
            1 if coords is None else len(coords) for _row, coords in self.parts
        )

    def __iter__(self) -> Iterator[Row]:
        for row, coords in self.parts:
            yield from expand_part(row, coords)

    def __getitem__(self, index):
        return list(self)[index]


def cell_key(run: RunSpec) -> Tuple:
    """The campaign-cell coordinate of a run: everything but (rep, seed).

    Runs sharing this key differ only in repetition index and derived
    seed — the precondition for batching them through
    :func:`repro.engine.batch.run_batch`.
    """
    return (run.algorithm, run.n, run.b, run.f, run.engine, run.scenario)


#: Worker-side memo for :func:`admit`: a 10k-run grid usually has a few
#: dozen distinct ``(algorithm, n, b, f)`` cells, and parameters / config
#: are frozen dataclasses safe to share across the runs of one worker
#: process.  Rejections (the exception) are memoized too, so inadmissible
#: cells short-circuit on every repetition.
_RESOLVE_MEMO: Dict[Tuple[str, int, int, int], Tuple[bool, object]] = {}


def _admit(algorithm: str, n: int, b: int, f: int) -> Admitted:
    model = FaultModel(n, b, f)
    parameters, config = resolve_algorithm(algorithm, model)
    # Builders resolve their own envelope (benign ones ignore ``b``,
    # Byzantine ones ignore ``f``): a cell asking for more faults than the
    # algorithm hosts is outside its Table-1 row.
    hosted = parameters.model
    if hosted.b < b or hosted.f < f:
        raise ParameterError(
            f"{algorithm} hosts (b={hosted.b}, f={hosted.f}), "
            f"grid point wants (b={b}, f={f})"
        )
    return model, parameters, config


def admit(algorithm: str, n: int, b: int, f: int) -> Admitted:
    """The cell's ``(model, parameters, config)``, or the reason it has none.

    Raises :class:`ValueError` when ``(n, b, f)`` is no fault model, when
    the algorithm's resilience bound rejects it
    (:class:`~repro.core.parameters.ParameterError`) or when the cell wants
    more faults than the algorithm hosts, and :class:`KeyError` for an
    unknown algorithm name.  Those verdicts are pure functions of the
    arguments and are replayed from the memo; any other failure (an import
    hiccup, ``MemoryError``) propagates uncached, so it cannot become the
    cell's sticky verdict for the worker's lifetime.
    """
    return cached_outcome(
        _RESOLVE_MEMO,
        (algorithm, n, b, f),
        lambda: _admit(algorithm, n, b, f),
        cache_exceptions=(ValueError, KeyError),
    )


def rejection_verdict(exc: BaseException) -> Tuple[str, str]:
    """``(status, error)`` columns for a cell :func:`admit` refused.

    A :class:`ValueError` is the bound (or the envelope) rejecting the
    model.  Anything else keeps its type name but no traceback tail: the
    memo replays a traceback-free copy of a cached rejection, so tail text
    would depend on which worker happened to resolve the cell first.
    """
    if isinstance(exc, ValueError):
        return STATUS_INADMISSIBLE, str(exc)
    return STATUS_ERROR, f"{type(exc).__name__}: {exc}"


def rejection_message(exc: BaseException) -> str:
    """A rejection's message for one-line CLI output (``str(KeyError)``
    would be the *repr* of it, quotes and all)."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def base_row(run: RunSpec) -> Row:
    return {
        "campaign": run.campaign,
        "run_id": run.run_id,
        "algorithm": run.algorithm,
        "n": run.n,
        "b": run.b,
        "f": run.f,
        "engine": run.engine,
        "fault": run.scenario.describe_fault(),
        "network": run.scenario.describe_network(),
        "rep": run.rep,
        "seed": run.seed,
        "status": STATUS_OK,
        "agreement": None,
        "validity": None,
        "unanimity": None,
        "termination": None,
        "decided": None,
        "rounds": None,
        "phases": None,
        "time_to_decision": None,
        "messages_sent": None,
        "messages_delivered": None,
        "messages_dropped": None,
        "error": None,
    }


def open_row(run: RunSpec) -> Tuple[Row, Optional[Admitted]]:
    """The row an execution of ``run`` fills in, and the cell's admission.

    ``None`` in the second slot means the row is already final: it carries
    the rejection's ``status`` and ``error`` and nothing is to be executed.
    """
    row = base_row(run)
    try:
        return row, admit(run.algorithm, run.n, run.b, run.f)
    except Exception as exc:
        status, error = rejection_verdict(exc)
        row.update(status=status, error=error)
        return row, None


#: Bounds on the traceback tail embedded in error rows: enough context to
#: diagnose a failure from the JSONL alone, small enough that a
#: pathological cell cannot bloat the result file.
TRACEBACK_TAIL_LINES = 12
TRACEBACK_TAIL_CHARS = 2000


def describe_error(exc: BaseException) -> str:
    """``TypeName: message`` plus a bounded traceback tail.

    The traceback starts at the executor's own ``try`` frame — the
    dispatch stack above it (inline generator vs. pooled ``execute_chunk``)
    never enters ``exc.__traceback__`` — so the text is identical at any
    worker count and chunk size, keeping error rows byte-stable.
    """
    head = f"{type(exc).__name__}: {exc}"
    tb = exc.__traceback__
    if tb is None:
        return head
    import traceback  # the error path only: keeps it off every start
    lines = "".join(
        traceback.format_exception(type(exc), exc, tb)
    ).rstrip("\n").split("\n")
    if len(lines) > TRACEBACK_TAIL_LINES:
        lines = ["  ..."] + lines[-TRACEBACK_TAIL_LINES:]
    tail = "\n".join(lines)
    if len(tail) > TRACEBACK_TAIL_CHARS:
        tail = "..." + tail[-TRACEBACK_TAIL_CHARS:]
    return f"{head}\n{tail}"
