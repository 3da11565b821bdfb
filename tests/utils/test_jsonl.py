"""The one crash-safe JSONL layer under every durable file.

The campaign checkpoint, the fuzz findings corpus and the events sidecar
read under one torn-tail rule — a line counts only once its newline is on
disk, and a line that does not parse is corruption unless it is the last —
and an appender opened on a torn file cuts the tail before it writes.
"""

import re

import pytest

from repro.fuzz import scan_findings
from repro.observability import read_events
from repro.utils.jsonl import Appender, canonical, replace, scan
from tests.conftest import HEADER_LINE, recorded_runs

#: A finding with every field replay, shrink and resume read.
FINDING = {
    "kind": "safety", "violated": ["agreement"], "over_bound": False,
    "candidate": {"algorithm": "pbft", "n": 4, "b": 1, "f": 0, "engine": "lockstep",
                  "scenario": {}},
    "key": "pbft", "seed": 1, "fuzz_seed": 7, "result": {},
}

#: Each durable file's reader, reduced to the ids of the lines it counted,
#: the record its lines hold and the header line it starts with.
FILES = {
    "checkpoint": (
        lambda path: sorted(recorded_runs(path)[0]),
        lambda i: {"campaign": "c", "run_id": i, "seed": i},
        HEADER_LINE.encode(),
    ),
    "corpus": (
        lambda path: [record["index"] for record in scan_findings(path)],
        lambda i: dict(FINDING, index=i),
        b"",
    ),
    "sidecar": (
        lambda path: [event["run_id"] for event in read_events(path)],
        lambda i: {"kind": "row_completed", "run_id": i, "ts": 1.0},
        b"",
    ),
}


@pytest.mark.parametrize("kind", sorted(FILES))
def test_one_torn_tail_rule(tmp_path, kind):
    read, record, head = FILES[kind]
    path = tmp_path / f"{kind}.jsonl"
    lines = [canonical(record(i)).encode() + b"\n" for i in range(3)]
    intact = head + lines[0] + b"\n" + lines[1]  # a blank line is skipped

    # A half line, and a whole line whose newline never reached the disk:
    # both are torn tails, and the next append starts past neither.
    for tail in (lines[2][:7], lines[2][:-1]):
        path.write_bytes(intact + tail)
        assert read(path) == [0, 1]
        with Appender(path) as appender:
            appender.write(lines[2])
        assert read(path) == [0, 1, 2]

    # A complete line that does not parse: torn if last, corrupt if not.
    path.write_bytes(intact + b"garbage\n")
    assert read(path) == [0, 1]
    path.write_bytes(intact + b"garbage\n" + lines[2])
    number = 4 + head.count(b"\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{number}: corrupt ")):
        read(path)


def test_a_decode_hook_reads_under_the_same_rule(tmp_path):
    """A caller's ``decode`` stands in for ``json.loads``: what it raises
    ``ValueError`` on is an unparseable line, torn if last."""
    path = tmp_path / "numbers.jsonl"
    path.write_bytes(b"1\n\n 2 \nthree\n")
    assert [obj for *_, obj in scan(path, "number", int)] == [1, 2]
    path.write_bytes(b"1\nthree\n4\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: corrupt ")):
        list(scan(path, "number", int))


def test_a_failed_replace_leaves_the_target_and_no_temporary(tmp_path):
    target = tmp_path / "results.jsonl"
    target.mkdir()
    (target / "keep").write_text("")  # a non-empty directory cannot be replaced
    with pytest.raises(OSError):
        replace(target, [b"{}\n"])
    assert sorted(path.name for path in tmp_path.iterdir()) == ["results.jsonl"]
    assert (target / "keep").exists()
