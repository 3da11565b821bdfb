"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.campaigns.results import row_to_json, validate_resume
from repro.utils.jsonl import canonical
from repro.core.classification import AlgorithmClass, build_class_parameters
from repro.core.types import FaultModel, SelectionMessage


def jsonl(rows) -> str:
    """Rows as the canonical JSONL text a result file holds."""
    return "".join(row_to_json(row) + "\n" for row in rows)


#: The header a hand-made checkpoint starts with: what ``recorded_runs``'s
#: stand-in spec would start it with.
HEADER = {"name": "hand"}
HEADER_LINE = canonical(HEADER) + "\n"


def recorded_runs(path, seed=lambda run_id: run_id):
    """``(recorded run_ids, intact byte length)`` of a checkpoint, read the
    way ``--resume`` reads it: through ``validate_resume``, against a
    stand-in spec whose header is ``HEADER`` and whose run ``i`` has seed
    ``seed(i)``."""
    spec = SimpleNamespace(
        to_mapping=lambda: HEADER,
        total_runs=2**63,
        run_at=lambda run_id: SimpleNamespace(seed=seed(run_id)),
    )
    index, intact = validate_resume(spec, path)
    return set(index), intact


@pytest.fixture
def benign_model() -> FaultModel:
    """A 3-process benign model tolerating one crash (Paxos minimum)."""
    return FaultModel(n=3, b=0, f=1)


@pytest.fixture
def pbft_model() -> FaultModel:
    """The PBFT minimum: n = 3b + 1 with b = 1."""
    return FaultModel(n=4, b=1, f=0)


@pytest.fixture
def mqb_model() -> FaultModel:
    """The MQB minimum: n = 4b + 1 with b = 1."""
    return FaultModel(n=5, b=1, f=0)


@pytest.fixture
def fab_model() -> FaultModel:
    """The FaB Paxos minimum: n = 5b + 1 with b = 1."""
    return FaultModel(n=6, b=1, f=0)


def sel_msg(vote, ts=0, history=None, selector=frozenset()):
    """Shorthand for building selection messages in FLV tests."""
    if history is None:
        history = frozenset({(vote, 0)})
    return SelectionMessage(
        vote=vote, ts=ts, history=frozenset(history), selector=frozenset(selector)
    )


def class_params(cls: AlgorithmClass, model: FaultModel, **kwargs):
    return build_class_parameters(cls, model, **kwargs)
