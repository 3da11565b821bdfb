"""The repository's byte-identity contracts, each written once.

An :class:`Equivalence` names two or more arms that must produce the same
bytes on every grid it lists.  An arm is one ``repro.cli.main(argv)`` call
(two for a resumed run) plus environment, writing into a temporary
directory, so the CLI, the worker pool and the result files stay covered.
The two contracts that live below the CLI — the engines' round model and
the comm-kind normal form — run their arms through ``run_instance`` /
``run_scenario``, one named case at a time.  A :class:`Grid` pins the last line ``campaign plan``
prints for it and the SHA-256 of each output, so a drift every arm shares
is caught too.  Each equivalence carries at least one test-only mutation of
the code under test that it must catch.

Run as a script, every equivalence runs on its full grids, one SHA-256 is
printed per output and the exit status is 1 on the first difference::

    PYTHONPATH=src python tests/equivalences.py [NAME ...]

``tests/test_equivalences.py`` runs each arm of each equivalence against
the first on its small grids in tier-1, and each mutation on its control
grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, Mapping, Optional, Tuple, Union
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from repro.campaigns import BUILTIN_CAMPAIGNS  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402
from repro.scenarios.spec import CommSpec  # noqa: E402

#: What one arm leaves behind: ``out`` (the result file, or the digests a
#: serve prints) and, for a recorded fuzz run, ``verdicts``.
Output = Dict[str, bytes]


class Divergence(AssertionError):
    """Two arms of an equivalence (or an arm and a pin) disagree."""


@dataclass(frozen=True)
class Arm:
    label: str = field(compare=False)
    flags: Tuple[str, ...] = ()
    env: Tuple[Tuple[str, str], ...] = ()
    resume: bool = False  # stop after the grid's cut, then --resume
    events: bool = False  # --events, one row_completed per row


@dataclass(frozen=True)
class Grid:
    name: str
    argv: Tuple[str, ...] = ()  # the command; "{spec}" stands for the spec
    spec: Union[str, Mapping, None] = None  # a mapping is written as JSON
    plan: Optional[str] = None  # the last line of ``campaign plan``
    sha: Mapping[str, str] = field(default_factory=dict)
    cut: Optional[int] = None  # where a resumed arm stops
    record: bool = False  # also record the fuzz verdict stream
    #: A below-CLI grid: ``call(arm, case)`` is one line per case, and the
    #: grid's output is its cases' lines in order.
    call: Optional[Callable[[Arm, str], str]] = None
    cases: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Equivalence:
    name: str
    arms: Tuple[Arm, ...]
    grids: Tuple[str, ...]
    small: Tuple[str, ...]  # what tier-1 runs
    mutation: Callable[[], ContextManager]  # what it must catch ...
    control: str  # ... on this grid, at --workers 1
    numpy: bool = False  # the mutations live on the numpy path
    #: Further ``(mutation, control grid)`` pairs it must catch.
    more: Tuple[Tuple[Callable[[], ContextManager], str], ...] = ()


# ------------------------------------------------------------------ grids


def _gauntlet(**changes) -> dict:
    """The built-in ``gauntlet``, narrowed: ``keep`` names its scenarios."""
    mapping = BUILTIN_CAMPAIGNS["gauntlet"].to_mapping()
    keep = changes.pop("keep", None)
    if keep is not None:
        mapping["scenarios"] = [s for s in mapping["scenarios"] if s["name"] in keep]
    mapping.update(changes)
    return mapping


def _campaign(name, spec, **pins) -> Grid:
    argv = ("campaign", "run", "{spec}", "--workers", "2", "--quiet", "--no-report")
    return Grid(name, argv, spec, **pins)


def _fuzz(seed: int, budget: int, **pins) -> Grid:
    argv = ("fuzz", "run", "--seed", str(seed), "--budget", str(budget), "--quiet")
    return Grid(f"fuzz-{seed}", argv, record=True, **pins)


def _serve(scenario: str, duration: str, *cell: str) -> Grid:
    argv = ("smr", "serve", "--scenario", scenario, *cell, "--rate", "80",
            "--duration", duration, "--seed", "3", "--json")
    # Every serve commits the arrival order: all share one pair of digests.
    return Grid(f"serve-{scenario}", argv, sha={"out": SERVE_DIGESTS[duration]})


SERVE_DIGESTS = {
    "1": "146f0a212289f7cdcc57b33b30214664d93e5a8a821733b87044d2f2d08d68af",
    "2": "5d7d4edb1b76deca7d47d4104d89b65cb9da4180b690550e7f5942db49546dc4",
}

#: The SHA-256 of no bytes: an in-bounds corpus finds nothing.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

#: Loss plus a crash script: seed-dependent with no array form — scalar.
LOSSY_CRASH = dict(
    get_scenario("lossy_channel").to_mapping(), name="lossy_crash", crashes=1
)


def _byzantine_scenario(name, byzantine, **comm) -> dict:
    return {"name": name, "byzantine": list(byzantine), "comm": comm, "max_phases": 15}


_SIZED = {"one-third-rule": 4, "fab-paxos": 6, "mqb": 5, "paxos": 3,
          "chandra-toueg": 3, "pbft": 4}
#: case → (algorithm, n, scripted adversary): every algorithm fault-free,
#: then pbft / mqb / fab-paxos under each scripted adversary.
LOCKSTEP_TIMED_CASES = {
    **{name: (name, n, None) for name, n in _SIZED.items()},
    **{
        f"{name}-{strategy}": (name, _SIZED[name], strategy)
        for name in ("pbft", "mqb", "fab-paxos")
        for strategy in ("silent", "equivocator", "vote-flipper",
                         "high-ts-liar", "fake-history-liar")
    },
}


def _lockstep_vs_timed(arm: Arm, case: str) -> str:
    """One case on ``arm``'s engine, on a network synchronous from time 0
    with latency 1 ≤ Δ = 2."""
    from repro.algorithms import ALGORITHM_BUILDERS
    from repro.engine.assembly import build_instance
    from repro.engine.kernel import OBSERVE_METRICS, run_instance
    from repro.engine.scheduler import LockstepScheduler, TimedScheduler
    from repro.eventsim.network import NetworkSpec

    name, n, strategy = LOCKSTEP_TIMED_CASES[case]
    spec = ALGORITHM_BUILDERS[name](n)
    byzantine = {} if strategy is None else {n - 1: strategy}
    values = {pid: f"v{pid % 2}" for pid in range(n) if pid not in byzantine}
    scheduler = (
        LockstepScheduler()
        if arm.flags == ("lockstep",)
        else TimedScheduler(NetworkSpec(kind="fixed", low=1.0).build(0))
    )
    outcome = run_instance(
        build_instance(spec.parameters, values, config=spec.config, byzantine=byzantine),
        scheduler, max_phases=12, observe=OBSERVE_METRICS,
    )
    if not outcome.agreement_holds or (
        strategy is None and not outcome.all_correct_decided
    ):
        raise Divergence(f"{case}: {arm.label} run is unsafe or stuck")
    return _signature(outcome)


def _signature(outcome) -> str:
    decisions = {pid: [d.value, d.round, d.phase]
                 for pid, d in sorted(outcome.decisions.items())}
    return json.dumps([decisions, outcome.rounds_executed, outcome.messages_sent,
                       outcome.messages_delivered, outcome.messages_dropped])


def _good_bad(schedule, bad, **fields) -> CommSpec:
    return CommSpec(kind="good-bad", schedule=schedule, bad=bad, **fields)


#: case → (comm kind, its ``regime()`` normal form).
COMM_SPELLINGS = {
    "lossy": (CommSpec(kind="lossy", drop_prob=0.3),
              _good_bad("never", "drop", drop_prob=0.3)),
    "silent": (CommSpec(kind="silent"), _good_bad("never", "silence")),
    "reliable": (CommSpec(), CommSpec(kind="good-bad", schedule="always")),
    "partition-halves": (_good_bad("after", "partition", good_from=3),) * 2,
    "partition-groups": (_good_bad("after", "partition", good_from=3,
                                   groups=((0, 2, 4, 6, 8), (1, 3, 5))),) * 2,
    "alternating-drop": (_good_bad("alternating", "drop", good_len=2, bad_len=2,
                                   drop_prob=0.4),) * 2,
}


def _comm_spellings(arm: Arm, case: str) -> str:
    """One comm kind in ``arm``'s spelling (its kind or its normal form) on
    ``arm``'s engine, every transit meeting the deadline, at one explicit
    seed."""
    from repro.core.classification import AlgorithmClass, build_class_parameters
    from repro.core.types import FaultModel
    from repro.eventsim.network import NetworkSpec
    from repro.scenarios import ScenarioSpec, run_scenario

    kind, normal_form = COMM_SPELLINGS[case]
    if kind.regime() != normal_form.regime():
        raise Divergence(f"{kind.describe()} is not its normal form")
    spelling, engine = arm.flags
    outcome = run_scenario(
        ScenarioSpec(byzantine=("adaptive-liar",),
                     comm=kind if spelling == "kind" else normal_form,
                     timing=NetworkSpec(kind="fixed", low=1.0)),
        build_class_parameters(AlgorithmClass.CLASS_2, FaultModel(9, 1, 1)),
        engine=engine, rng=5, observe="metrics", max_phases=8,
    )
    return _signature(outcome)


_GRIDS = [
    _campaign(
        "gauntlet", "gauntlet", cut=40,
        plan="  tiers: columnar-state 30  replicate 50  scalar 16",
        sha={"out": "efefaaaf2deb3254798e5aaa7cf2b7492fe15a3749d553da133ea0be3f0b950e"},
    ),
    _campaign(
        "stochastic-cmp",
        _gauntlet(name="stochastic-cmp", repetitions=4, models=[[9, 1, 1], [21, 2, 2]],
                  keep=("async_then_sync", "flaky_gst", "lossy_channel")),
        plan="  tiers: columnar-state 144",
        sha={"out": "30101d228650d867df15957c1d2ee16ca0bbde8c3c5a003a2ef49d8355872d2f"},
    ),
    _campaign(
        "comm-matrix", str(ROOT / "tests" / "data" / "comm-matrix.json"),
        plan="  tiers: columnar-state 616  replicate 560  scalar 296",
        sha={"out": "bfbc12929a4eed26cac058e9571c110e64c0786c90375c06062c868581f63057"},
    ),
    _campaign(
        "cells-cmp",
        _gauntlet(name="cells-cmp", repetitions=50, algorithms=["class-2"],
                  models=[[9, 1, 1]],
                  keep=("fault-free", "worst_case", "flaky_gst", "lossy_channel")),
        cut=70,  # inside a group
        plan="  tiers: columnar-state 200  replicate 200",
        sha={"out": "d1f04560758f4ca2249bc21bc68e47335596dd532546641f0f310eb78caf9a2b"},
    ),
    _campaign(
        "ben-or-prel",
        {"name": "ben-or-prel", "algorithms": ["ben-or"], "models": [[3, 0, 1], [8, 1, 0]],
         "scenarios": [{"name": "prel", "comm": {"kind": "async-prel"}}],
         "repetitions": 4, "max_phases": 60},
        plan="  tiers: scalar 8",
        sha={"out": "6e6312af9d3bfad86bf80d6710c21b38ec027811b5afc3be8b3be32ca681122b"},
    ),
    _campaign("latency-gst", "latency-gst", plan="  tiers: columnar-state 15  replicate 5"),
    # What the campaign kill cell of tests/cells.py interrupts.
    _campaign("kill-cmp", _gauntlet(name="kill-cmp", repetitions=50), sha={
        "out": "eec07d01d14700845e9fc72353931d78cb6ab645c9aa8f839e26799dd49af4bd",
    }),
    # One cell of every kind: class-1 is inadmissible at (7,1,1) (three
    # rejected groups), class-2 replicates fault-free, runs lossy_channel as
    # one array program and lossy_crash on the per-run oracle.
    _campaign(
        "groups",
        {"name": "groups", "algorithms": ["class-1", "class-2"], "models": [[7, 1, 1]],
         "scenarios": ["fault-free", "lossy_channel", LOSSY_CRASH],
         "repetitions": 6, "seed": 3, "max_phases": 12},
        cut=21,  # inside the replicate group
        plan="  tiers: columnar-state 6  replicate 6  scalar 24",
        sha={"out": "5f6901de1a85e9fc4303ff55e7ebd9e48134e902dd7d43f3d6921b721814bb91"},
    ),
    # Byzantine payloads under per-edge coins, every cell columnar-state: an
    # equivocator whose bad selection rounds deliver raw and good ones pin
    # it (then the oracle may inject), and broadcast liars under loss.
    _campaign(
        "byz-forced",
        {"name": "byz-forced", "algorithms": ["class-2", "class-3"],
         "models": [[11, 2, 1]], "engines": ["lockstep", "timed"],
         "scenarios": [
             _byzantine_scenario("byz_lossy", ("equivocator", "high-ts-liar"),
                                 kind="lossy", drop_prob=0.3),
             _byzantine_scenario("byz_equivocator_gst", ("equivocator",),
                                 kind="good-bad", schedule="after", good_from=4,
                                 bad="drop", drop_prob=0.5),
             _byzantine_scenario("byz_high_ts_lossy", ("high-ts-liar",),
                                 kind="lossy", drop_prob=0.3),
         ],
         "repetitions": 8, "seed": 13},
        plan="  tiers: columnar-state 96",
        sha={"out": "f34a0bb7d1cf1414d5c8652f97da7ad8682617d2059ef1d33352c59dd6399e8e"},
    ),
    _fuzz(7, 60, cut=20, sha={
        "out": EMPTY,
        "verdicts": "75de272799672d6e7ff9b233ffc9f90d55e8c7c4e40ee1fd94102abbe178343d",
    }),
    # The default space at budget 1,500: the in-bounds corpus is empty, so
    # the verdict stream is what sees a moved verdict.
    _fuzz(11, 1500, sha={
        "out": EMPTY,
        "verdicts": "9cbd53a361e5de499771f8354cb36d60c5054406fa8ccd399df755e26d645d90",
    }),
    _fuzz(23, 1500, sha={
        "out": EMPTY,
        "verdicts": "1704e6a36b72fbd6443dda3359d247658e73dcb7b13b9ef159e3939ef7ccb0e7",
    }),
    _serve("fault-free", "1"),
    _serve("worst_case", "2"),
    _serve("lossy_channel", "2"),
    _serve("crash_storm", "2", "--algorithm", "paxos", "--n", "5", "--b", "0", "--f", "2"),
    _serve("silent_minority", "2"),
    _serve("flaky_gst", "2"),
    _serve("partition_heal", "2", "--engine", "timed"),
    _serve("async_then_sync", "2", "--engine", "timed"),
    Grid("lockstep-timed", call=_lockstep_vs_timed, cases=tuple(LOCKSTEP_TIMED_CASES), sha={
        "out": "c53bce53cd2646bfc54b6957001657e010a47bd81dcf4d569968b98bc964a611",
    }),
    Grid("comm-spellings", call=_comm_spellings, cases=tuple(COMM_SPELLINGS), sha={
        "out": "64100995b9c51491ba2e19c9f60a058f32f4f5ba2e475f3c8eb7bd29f5c07f4a",
    }),
]
GRIDS: Dict[str, Grid] = {grid.name: grid for grid in _GRIDS}
SERVE_GRIDS = tuple(name for name in GRIDS if name.startswith("serve-"))


# -------------------------------------------------------------- mutations


@contextlib.contextmanager
def _max_code_tie_break():
    """The array FLVs break ties toward the greatest code, not the least."""
    from repro.core import columnar

    def pick_max_code(np, mask):
        return np.where(mask, np.arange(mask.shape[-1]), columnar.NULL_CODE).max(axis=-1)

    with mock.patch.object(columnar, "pick_min_code", pick_max_code), mock.patch(
        "repro.engine.batch.columnar_state.pick_min_code", pick_max_code
    ):
        yield


def _late(*draws):
    """Each named draw method of the numpy stream set starts one draw late."""
    from repro.utils.accel import StreamSet

    ragged = StreamSet.ragged

    def late(draw):
        def skipping(self, rows, count):
            ragged(self, rows, [1] * len(rows))
            return draw(self, rows, count)

        return skipping

    return mock.patch.multiple(
        StreamSet, **{name: late(getattr(StreamSet, name)) for name in draws}
    )


def _skipped_draw():
    """Every draw of the numpy stream set starts one draw late."""
    return _late("block", "ragged")


def _skipped_latency():
    """Every ragged draw — each latency block — starts one draw late."""
    return _late("ragged")


def _uncanonical_fast_sweep():
    """The heap-free sweep forgets the equivocator's selection-round pin."""
    from repro.core.types import RoundInfo, RoundKind
    from repro.engine.scheduler import TimedScheduler

    sweep = TimedScheduler._deliver_fast

    def forgetful(self, info, *rest):
        return sweep(self, RoundInfo(info.number, info.phase, RoundKind.DECISION), *rest)

    return mock.patch.object(TimedScheduler, "_deliver_fast", forgetful)


def _positional_seeds():
    """A run's seed comes from its position in the slice, not its rep."""
    from repro.engine.cell import CellSlice, cell_key, cell_key_prefix, derive_seed

    def coords(self):
        prefix = cell_key_prefix(*cell_key(self.first))
        for position, rep in enumerate(self.reps):
            seed = derive_seed(self.campaign_seed, f"{prefix}rep{position}")
            yield rep, self.first.run_id + rep, seed

    return mock.patch.object(CellSlice, "coords", coords)


def _lost_index_entry():
    """A resumed sink forgets the last line its checkpoint recorded, which
    the resume still skips."""
    from repro.campaigns.results import LineIndex, ResultSink

    init = ResultSink.__init__

    def forgetful(self, path, index=None, header=None):
        init(self, path, index, header)
        if index:
            self.index = LineIndex()
            self.index.update(index)
            del self.index[max(index, key=lambda run_id: index[run_id][0])]

    return mock.patch.object(ResultSink, "__init__", forgetful)


def _volatile_key_kept():
    """``_elapsed_ms`` reaches the result file."""
    from repro.campaigns import results

    encode = results.row_to_json

    def leaky(row):
        line = encode(row)
        return line if "_elapsed_ms" not in row else line[:-1] + (
            ',"_elapsed_ms":%s}' % json.dumps(row["_elapsed_ms"])
        )

    return mock.patch.object(results, "row_to_json", leaky)


def _reversed_batches():
    """A batched slot commits its commands last-arrived first."""
    from repro.smr.log import LogEntry, ReplicatedLog

    commit = ReplicatedLog.commit

    def backwards(self, entry):
        commit(self, LogEntry(entry.slot, tuple(reversed(entry.command)), entry.phases))

    return mock.patch.object(ReplicatedLog, "commit", backwards)


def _pcons_uncanonical():
    """The lockstep ``Pcons`` oracle delivers selection rounds as sent."""
    from repro.rounds.policies import faithful_delivery

    return mock.patch(
        "repro.engine.scheduler.enforce_pcons",
        lambda outbound, ctx: faithful_delivery(outbound),
    )


def _dest_major_filter():
    """The lockstep bad round visits edges dest-major, so the coins of a
    drop rule land on other edges than the timed sweep's."""

    def filtered(outbound, byzantine, rule):
        matrix, dropped = {}, 0
        for dest in sorted({d for messages in outbound.values() for d in messages}):
            for sender, messages in outbound.items():
                if dest in messages:
                    if dest in byzantine or rule(sender, dest):
                        matrix.setdefault(dest, {})[sender] = messages[dest]
                    else:
                        dropped += 1
        return matrix, dropped

    return mock.patch("repro.engine.scheduler.filtered_delivery", filtered)


# ------------------------------------------------------------ equivalences

DEFAULT = Arm("default")
CAMPAIGN_GRIDS = ("gauntlet", "stochastic-cmp", "comm-matrix", "cells-cmp",
                  "ben-or-prel", "byz-forced")

EQUIVALENCES: Tuple[Equivalence, ...] = (
    Equivalence(
        "tiers",
        (Arm("scalar", ("--backend", "scalar")), DEFAULT,
         Arm("batch", ("--backend", "batch", "--chunk", "8"))),
        CAMPAIGN_GRIDS, ("groups", "byz-forced"),
        _max_code_tie_break, "byz-forced", numpy=True,
    ),
    Equivalence(
        "numpy",
        (DEFAULT, Arm("no-numpy", env=(("REPRO_NO_NUMPY", "1"),))),
        CAMPAIGN_GRIDS, ("groups", "byz-forced"),
        _skipped_draw, "groups", numpy=True,
        # ``groups`` draws coins but, at default timing, no latency: the
        # latency path needs a grid whose pre-GST draws decide deliveries.
        more=((_skipped_latency, "latency-gst"),),
    ),
    Equivalence(
        "heap",
        (DEFAULT, Arm("heap", env=(("REPRO_SLOW_SCHEDULER", "1"),))),
        ("gauntlet", "comm-matrix", "fuzz-11", "fuzz-23"), ("gauntlet",),
        _uncanonical_fast_sweep, "gauntlet",
    ),
    Equivalence(
        "workers",
        (Arm("w1", ("--workers", "1")), DEFAULT, Arm("chunk1", ("--chunk", "1")),
         Arm("chunk8", ("--chunk", "8"))),
        ("gauntlet", "cells-cmp", "ben-or-prel"), ("groups",),
        _positional_seeds, "groups",
    ),
    Equivalence(
        "resume",
        (DEFAULT, Arm("resumed", resume=True)),
        ("gauntlet", "cells-cmp", "fuzz-7"), ("groups",),
        _lost_index_entry, "groups",
    ),
    Equivalence(
        "events",
        (DEFAULT, Arm("events", events=True)),
        ("gauntlet", "cells-cmp"), ("groups",),
        _volatile_key_kept, "groups",
    ),
    Equivalence(
        "serve",
        (Arm("slot", ("--batch", "1", "--depth", "1")),
         Arm("piped", ("--batch", "8", "--depth", "4")),
         Arm("wide", ("--batch", "16", "--depth", "2"))),
        SERVE_GRIDS, SERVE_GRIDS,
        _reversed_batches, "serve-fault-free",
    ),
    Equivalence(
        "lockstep-timed",
        (Arm("lockstep", ("lockstep",)), Arm("timed", ("timed",))),
        ("lockstep-timed",), ("lockstep-timed",),
        _pcons_uncanonical, "lockstep-timed",
    ),
    Equivalence(
        "normal-form",
        tuple(Arm(f"{spelling}-{engine}", (spelling, engine))
              for engine in ("lockstep", "timed") for spelling in ("kind", "normal")),
        ("comm-spellings",), ("comm-spellings",),
        _dest_major_filter, "comm-spellings",
    ),
)
BY_NAME = {entry.name: entry for entry in EQUIVALENCES}


# ---------------------------------------------------------------- running


def spec_argument(grid: Grid, directory: Path) -> str:
    """What ``{spec}`` stands for: a built-in name, a path, or the grid's
    mapping written into ``directory``."""
    if not isinstance(grid.spec, Mapping):
        return str(grid.spec)
    path = directory / f"{grid.name}.spec.json"
    path.write_text(json.dumps(grid.spec))
    return str(path)


def _cli(argv, expect: int) -> str:
    """``main(argv)``; its stdout, or :class:`Divergence` naming the
    exit status and stderr when the status is not ``expect``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main([str(arg) for arg in argv])
    if status != expect:
        raise Divergence(f"{' '.join(map(str, argv))} exited {status}:\n{stderr.getvalue()}")
    return stdout.getvalue()


@contextlib.contextmanager
def _verdict_stream(lines):
    """Append one line per classified fuzz candidate to ``lines``."""
    from repro.fuzz import runner

    classify = runner.classify_candidate
    fields = ("agreement", "validity", "unanimity", "termination", "decided", "rounds")

    def recording(candidate, candidate_seed, **kwargs):
        verdict = classify(candidate, candidate_seed, **kwargs)
        row = [verdict.status, verdict.kind] + [verdict.row[name] for name in fields]
        lines.append(json.dumps(row).encode() + b"\n")
        return verdict

    with mock.patch.object(runner, "classify_candidate", recording):
        yield


def run_arm(
    grid: Grid, arm: Arm, directory: Path, workers: Optional[int] = None,
    case: Optional[str] = None,
) -> Output:
    """What ``arm`` produces on ``grid`` (``workers`` overrides every
    ``--workers``; ``case`` runs one case of a below-CLI grid), run inside
    ``directory``."""
    if grid.call is not None:
        cases = grid.cases if case is None else (case,)
        return {"out": "\n".join(grid.call(arm, each) for each in cases).encode()}
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / f"{grid.name}.{arm.label}.jsonl"
    argv = [part.format(spec=spec_argument(grid, directory)) for part in grid.argv]
    argv += arm.flags
    if workers is not None and "--workers" in argv:
        argv += ["--workers", workers]
    serve = argv[0] == "smr"  # prints its report instead of writing --out
    if not serve:
        argv += ["--out", out]
    events = directory / f"{grid.name}.{arm.label}.events.jsonl"
    if arm.events:
        argv += ["--events", events]
    verdicts: list = []
    with mock.patch.dict(os.environ, dict(arm.env)), (
        _verdict_stream(verdicts) if grid.record else contextlib.nullcontext()
    ):
        if arm.resume:
            _cli(argv + ["--stop-after", grid.cut], expect=3)
            # A campaign stopped on the grid's tiers and worker count (a cut
            # may split a group) resumes alone on the scalar oracle.
            argv += ["--resume"] + (
                ["--workers", "1", "--backend", "scalar"] if argv[0] == "campaign" else []
            )
        printed = _cli(argv, expect=0)
    if serve:
        report = json.loads(printed)
        if not report["digests_agree"]:
            raise Divergence(f"{grid.name} {arm.label}: replicas diverged")
        return {"out": json.dumps([report["log_digest"], report["digest"]]).encode()}
    output = {"out": out.read_bytes()}
    if arm.events:
        from repro.observability import read_events

        completed = sum(e["kind"] == "row_completed" for e in read_events(events))
        if completed != output["out"].count(b"\n"):
            raise Divergence(f"{grid.name}: {completed} row_completed events")
    if grid.record:
        output["verdicts"] = b"".join(verdicts)
    return output


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(
    entry: Equivalence, grid: Grid, directory: Path, workers=None, memo=None,
    arms=None, case=None,
):
    """``[(arm, output)]`` of each of ``arms`` (default: every arm of
    ``entry``) on ``grid``, or on one ``case`` of it; ``memo`` shares
    outputs between calls whose arms coincide."""
    memo = {} if memo is None else memo
    found = []
    for arm in entry.arms if arms is None else arms:
        key = (grid.name, arm, workers, case)
        if key not in memo:
            memo[key] = run_arm(grid, arm, directory / entry.name, workers, case)
        found.append((arm, memo[key]))
    return found


def check(entry: Equivalence, grid: Grid, directory: Path, memo=None, arm=None, case=None):
    """Every arm of ``entry`` (or ``arm`` alone) on ``grid``, or on one
    ``case`` of it, against the first arm and, for a whole grid, the pins;
    yields ``(arm, output name, SHA-256)`` as each output passes."""
    first = entry.arms[0]
    arms = None if arm is None else (first, arm)
    found = outputs(entry, grid, directory, memo=memo, arms=arms, case=case)
    expected = found[0][1]
    for each, output in found:
        for name, data in sorted(output.items()):
            digest = sha256(data)
            if data != expected[name]:
                raise Divergence(
                    f"{entry.name} on {grid.name}{'' if case is None else ' ' + case}: "
                    f"{each.label} {name} differs from {first.label}"
                )
            if case is None and grid.sha.get(name, digest) != digest:
                raise Divergence(
                    f"{grid.name} {name} is {digest}, pinned {grid.sha[name]}"
                )
            yield each, name, digest


def planned(grid: Grid, directory: Path) -> str:
    """The last line ``campaign plan`` prints for ``grid``."""
    directory.mkdir(parents=True, exist_ok=True)
    printed = _cli(["campaign", "plan", spec_argument(grid, directory)], expect=0)
    return printed.rstrip("\n").splitlines()[-1]


def _main(argv) -> int:
    entries = [BY_NAME[name] for name in argv] or list(EQUIVALENCES)
    memo: dict = {}
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        try:
            for grid in GRIDS.values():
                if grid.plan is not None:
                    line = planned(grid, directory)
                    if line != grid.plan:
                        raise Divergence(f"{grid.name} plans {line!r}, not {grid.plan!r}")
                    print(f"{'plan':<15} {grid.name:<20} {line.strip()}")
            for entry in entries:
                for name in entry.grids:
                    for arm, key, digest in check(entry, GRIDS[name], directory, memo):
                        print(f"{entry.name:<15} {name:<20} {arm.label:<15} {key:<8} {digest}",
                              flush=True)
        except Divergence as exc:
            print(f"DIVERGENCE: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
