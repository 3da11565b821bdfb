"""The resume scan decodes a group once and still reads what a full parse
reads; finalize copies runs of adjacent lines and still writes the bytes a
line-by-line merge writes.

The reference scan below calls ``json.loads`` on every line — the scan as
it was before a group's lines shared one parse.  Every input is checked on
index, intact length, first and last row and the report fold; a mutation
(a shape compared on its first byte run only) must be caught.
"""

import dataclasses
import json
import re

import pytest

from repro.campaigns import results
from repro.campaigns.aggregate import SummaryFold
from repro.campaigns.presets import BUILTIN_CAMPAIGNS
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.results import (
    checkpoint_path,
    finalize_checkpoint,
    row_to_json,
    validate_resume,
)
from repro.cli import main
from repro.utils.jsonl import scan
from tests.conftest import HEADER_LINE

REPLICATE = {
    "name": "scan-replicate",
    "algorithms": ["class-1", "class-2"],
    "models": [[7, 1, 1]],
    "engines": ["lockstep"],
    "scenarios": ["fault-free", "worst_case"],
    "repetitions": 12,
    "seed": 5,
    "max_phases": 12,
}
STOCHASTIC = {
    "name": "scan-stochastic",
    "algorithms": ["class-2"],
    "models": [[9, 1, 1]],
    "engines": ["lockstep", "timed"],
    "scenarios": ["flaky_gst", "lossy_channel"],
    "repetitions": 8,
    "seed": 7,
    "max_phases": 12,
}


def reference_scan(path):
    """Every line through ``json.loads``, every row folded on its own."""
    index, fold = {}, SummaryFold()
    first = last = None
    lines = scan(path, "checkpoint")
    offset, length, _header = next(lines)
    intact = offset + length
    for offset, length, row in lines:
        if row["run_id"] not in index:
            index[row["run_id"]] = (offset, length)
            fold.add(row)
        first = row if first is None else first
        last, intact = row, offset + length
    return index, intact, first, last, fold.summaries()


def group_scan(path):
    fold = SummaryFold()
    return (*results._scan(path, fold.add), fold.summaries())


def parses(path, monkeypatch):
    """``(json.loads calls, lines)`` of one group scan of ``path``."""
    calls = []
    loads = json.loads
    monkeypatch.setattr(
        json, "loads", lambda *args: calls.append(1) or loads(*args)
    )
    results._scan(path)
    monkeypatch.setattr(json, "loads", loads)
    return len(calls), len(path.read_bytes().splitlines())


def assert_scans_agree(path):
    names = ("index", "intact", "first", "last", "summaries")
    for name, got, want in zip(names, group_scan(path), reference_scan(path)):
        assert got == want, name


def campaign_file(tmp_path, mapping, *options):
    """Run ``mapping`` through ``campaign run``; the checkpoint it left
    when ``options`` stop it, else its result file."""
    spec = tmp_path / f"{mapping['name']}.json"
    spec.write_text(json.dumps(mapping))
    out = tmp_path / f"{mapping['name']}.jsonl"
    code = main(["campaign", "run", str(spec), "--out", str(out),
                 "--quiet", "--no-report", *options])
    assert code == (3 if "--stop-after" in options else 0)
    return checkpoint_path(out) if code == 3 else out


def row(run_id, **fields):
    base = {
        "campaign": "hand", "algorithm": "pbft", "n": 4, "b": 1, "f": 0,
        "engine": "lockstep", "fault": "fault-free", "status": "ok",
        "agreement": True, "validity": True, "unanimity": True,
        "termination": True, "phases": 1, "messages_sent": 48,
        "time_to_decision": None, "error": None,
        "rep": run_id % 5, "run_id": run_id, "seed": 10**12 + 7919 * run_id,
    }
    base.update(fields)
    return base


def write(path, rows):
    path.write_text(HEADER_LINE + "".join(row_to_json(each) + "\n" for each in rows))
    return path


@pytest.fixture(scope="module")
def replicate(tmp_path_factory):
    """A replicate grid's checkpoint, cut inside a group."""
    return campaign_file(
        tmp_path_factory.mktemp("replicate"), REPLICATE, "--stop-after", "40"
    )


@pytest.fixture(scope="module")
def gauntlet(tmp_path_factory):
    """A reps-3 gauntlet's checkpoint at ``--workers 2``: completion order."""
    mapping = dataclasses.replace(
        BUILTIN_CAMPAIGNS["gauntlet"], name="scan-gauntlet", repetitions=3
    ).to_mapping()
    path = campaign_file(
        tmp_path_factory.mktemp("gauntlet"), mapping,
        "--workers", "2", "--stop-after", "200",
    )
    # The pool's order is run_id order now and then; rotated, it is still
    # an order chunks can complete in, and never the sorted one.
    header, *lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join([header] + lines[100:] + lines[:100]))
    return path


class TestDifferential:
    def test_replicate_checkpoint(self, replicate, monkeypatch):
        assert_scans_agree(replicate)
        loads, lines = parses(replicate, monkeypatch)
        assert lines == 1 + 40 and loads <= 1 + 4  # the header, one parse a group

    def test_gauntlet_checkpoint_in_completion_order(
        self, gauntlet, monkeypatch
    ):
        ids = [index for index in reference_scan(gauntlet)[0]]
        assert ids != sorted(ids)  # the pool's order, not run_id order
        assert_scans_agree(gauntlet)
        loads, lines = parses(gauntlet, monkeypatch)
        assert loads < lines

    def test_all_distinct_stochastic_file(self, tmp_path, monkeypatch):
        path = campaign_file(tmp_path, STOCHASTIC)
        path.write_bytes(HEADER_LINE.encode() + path.read_bytes())  # as a checkpoint
        assert_scans_agree(path)
        loads, lines = parses(path, monkeypatch)
        assert loads == lines == 1 + 32

    def test_blank_lines_torn_tail_and_duplicate_run_ids(
        self, replicate, tmp_path
    ):
        header, *lines = replicate.read_bytes().splitlines(keepends=True)
        damaged = [header] + (
            lines[:3] + [b"\n", b"   \n"] + lines[3:5] + [lines[4]]
            + lines[5:20] + [lines[0], lines[12]] + lines[20:]
            + [lines[30][:40]]
        )
        path = tmp_path / "damaged.partial"
        path.write_bytes(b"".join(damaged))
        assert_scans_agree(path)
        index, intact = validate_resume(
            CampaignSpec.from_mapping(REPLICATE), path
        )
        assert len(index) == 40 and intact == path.stat().st_size - 40

    @pytest.mark.parametrize("at", [2, 17])
    def test_corrupt_middle_line_names_path_and_line(
        self, replicate, tmp_path, at
    ):
        lines = replicate.read_bytes().splitlines(keepends=True)
        lines[at] = lines[at][:-30] + b"\n"
        path = tmp_path / "corrupt.partial"
        path.write_bytes(b"".join(lines))
        for scanner in (reference_scan, group_scan):
            with pytest.raises(ValueError, match=(
                f"{re.escape(str(path))}:{at + 1}: corrupt checkpoint line"
            )):
                scanner(path)

    def test_string_field_holding_a_coordinate(self, tmp_path, monkeypatch):
        rows = [row(i, error='"seed":5,"rep":1}') for i in range(6)]
        rows += [row(i, error='\\"seed\\":5') for i in range(6, 9)]
        path = write(tmp_path / "string.partial", rows)
        assert b'\\"seed\\":5' in path.read_bytes()
        assert_scans_agree(path)
        assert parses(path, monkeypatch) == (1 + 2, 1 + 9)

    def test_nested_object_keyed_seed(self, tmp_path, monkeypatch):
        rows = [row(i, extra={"seed": 5, "rep": 0}) for i in range(5)]
        rows += [row(i, extra={"seed": i}) for i in range(5, 8)]
        path = write(tmp_path / "nested.partial", rows)
        assert_scans_agree(path)
        assert parses(path, monkeypatch) == (1 + 8, 1 + 8)  # no shape is proved

    def test_unprovable_lines_are_each_parsed(self, tmp_path, monkeypatch):
        """A second ``run_id`` spelling keeps a line out of any shape; each
        such line is parsed on its own.  Whitespace or a repeated key make
        a line no sink writes, which the scan refuses."""
        rows = [row(i) for i in range(4)]
        path = tmp_path / "unprovable.partial"
        path.write_text(HEADER_LINE + "".join(
            row_to_json(dict(each, note='x"run_id')) + "\n" for each in rows
        ))
        assert reference_scan(path)[0].keys() == {0, 1, 2, 3}
        assert_scans_agree(path)
        assert parses(path, monkeypatch) == (1 + 4, 1 + 4)
        for text in (
            "".join(  # a space after each comma: no cut matches
                json.dumps(each, sort_keys=True, separators=(", ", ":"))
                + "\n" for each in rows
            ),
            "".join(
                row_to_json(each)[:-1] + ',"rep":%d}\n' % each["rep"]
                for each in rows
            ),
        ):
            path.write_text(HEADER_LINE + text)
            with pytest.raises(ValueError, match=f"byte {len(HEADER_LINE)} is not its row's"):
                results._scan(path)


def test_a_shape_compared_on_its_first_run_only_is_caught(
    tmp_path, monkeypatch
):
    """Mutation: a line whose bytes before ``rep`` match is taken for the
    group's, whatever follows.  Rows of one cell that differ only after
    ``seed`` then fold as the group's first row."""
    rows = [row(i, time_to_decision=float(i)) for i in range(6)]
    path = write(tmp_path / "latencies.partial", rows)
    assert_scans_agree(path)

    def first_run_only(line, shape):
        if not line.startswith(shape[0]):
            return None
        return int(re.search(rb'"run_id":(\d+)', line)[1])

    monkeypatch.setattr(results, "_recut", first_run_only)
    with pytest.raises(AssertionError):
        assert_scans_agree(path)


class TestFinalizeRuns:
    def merged_line_by_line(self, data, index):
        return b"".join(
            data[offset:offset + length]
            for _, (offset, length) in sorted(index.items())
        )

    def test_completion_order_with_gaps_and_duplicates(
        self, gauntlet, tmp_path
    ):
        lines = gauntlet.read_bytes().splitlines(keepends=True)
        checkpoint = tmp_path / "out.jsonl.partial"
        checkpoint.write_bytes(b"".join(lines + lines[5:9] + [lines[1]]))
        index, _ = validate_resume(
            dataclasses.replace(
                BUILTIN_CAMPAIGNS["gauntlet"], name="scan-gauntlet",
                repetitions=3,
            ),
            checkpoint,
        )
        for gap in sorted(index)[10::7]:
            del index[gap]
        expected = self.merged_line_by_line(checkpoint.read_bytes(), index)
        out = finalize_checkpoint(checkpoint, tmp_path / "out.jsonl", index)
        assert out.read_bytes() == expected
        assert not checkpoint.exists()

    @pytest.mark.parametrize("damage", [
        lambda offset, length: (offset, length - 1),
        lambda offset, length: (offset + 1, length - 1),
        lambda offset, length: (offset, length + 1),
    ])
    def test_damaged_entry_inside_a_run_still_raises(
        self, replicate, tmp_path, damage
    ):
        checkpoint = tmp_path / "out.jsonl.partial"
        checkpoint.write_bytes(replicate.read_bytes())
        index = results._scan(checkpoint)[0]
        middle = sorted(index)[len(index) // 2]
        index[middle] = damage(*index[middle])
        with pytest.raises(ValueError, match=f"run {middle} "):
            finalize_checkpoint(checkpoint, tmp_path / "out.jsonl", index)
        assert checkpoint.read_bytes() == replicate.read_bytes()
        assert not (tmp_path / "out.jsonl").exists()
