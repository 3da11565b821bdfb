"""Streaming execution and interrupt/resume: the crash-safe campaign path.

The contract under test: kill a campaign anywhere mid-grid, resume it (at
any worker count), and the finalized JSONL is byte-identical to a single
uninterrupted run — plus the streaming properties that make that cheap
(lazy expansion, bounded dispatch, single-pass aggregation) and the
``sent == delivered + dropped`` accounting invariant on both engines.
"""

import itertools
import json

import pytest

from repro.campaigns.results import (
    checkpoint_path,
    finalize_checkpoint,
    iter_rows,
    validate_resume,
)
from repro.campaigns.runner import iter_campaign, run_campaign
from repro.campaigns.spec import CampaignSpec
from repro.cli import main
from tests.conftest import jsonl, recorded_runs

COORDS = ("rep", "run_id", "seed")

SPEC = {
    "name": "resume-unit",
    "algorithms": ["pbft", "class-2"],
    "models": [[4, 1, 0]],
    "engines": ["lockstep", "timed"],
    "scenarios": ["fault-free", "worst_case"],
    "repetitions": 2,
    "seed": 11,
    "max_phases": 12,
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


def run_cli(spec_path, out, *extra):
    return main(
        [
            "campaign", "run", str(spec_path),
            "--out", str(out), "--quiet", "--no-report", *extra,
        ]
    )


@pytest.fixture()
def reference(spec_path, tmp_path, capsys):
    out = tmp_path / "reference.jsonl"
    assert run_cli(spec_path, out) == 0
    capsys.readouterr()
    return out.read_bytes()


class TestInterruptResume:
    """Resume ≡ single shot is the equivalence table's ``resume`` entry;
    what stays here is the file lifecycle around it."""

    def test_resume_after_torn_final_line(
        self, spec_path, tmp_path, capsys, reference
    ):
        """A crash mid-append leaves a torn line; resume truncates and
        re-executes that run."""
        out = tmp_path / "torn.jsonl"
        assert run_cli(spec_path, out, "--stop-after", "4") == 3
        assert not out.exists()
        checkpoint = checkpoint_path(out)
        with open(checkpoint, "a", encoding="utf-8") as handle:
            handle.write('{"run_id":7,"status":"ok","truncat')
        assert run_cli(spec_path, out, "--resume") == 0
        capsys.readouterr()
        assert out.read_bytes() == reference
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "run_id, spelling",
        [(1, '"run_id":true'), (2, '"run_id": 2')],
        ids=["bool", "spaced"],
    )
    def test_resume_refuses_a_line_finalize_would_refuse(
        self, spec_path, tmp_path, capsys, run_id, spelling
    ):
        """``true`` passes for run 1 (``True == 1``) and a spaced run_id
        parses, but finalize finds neither line's ``"run_id":N``: resume
        refuses them before anything executes, the checkpoint untouched."""
        out = tmp_path / "respelled.jsonl"
        assert run_cli(spec_path, out, "--stop-after", "4") == 3
        checkpoint = checkpoint_path(out)
        canonical = '"run_id":%d,' % run_id
        text = checkpoint.read_text()
        assert text.count(canonical) == 1
        checkpoint.write_text(text.replace(canonical, spelling + ","))
        recorded = checkpoint.read_bytes()
        capsys.readouterr()
        assert run_cli(spec_path, out, "--resume") == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot resume: ") and err.endswith(
            "; delete the checkpoint to start over\n"
        )
        assert "run_id" in err
        assert checkpoint.read_bytes() == recorded
        assert not out.exists()

    @pytest.mark.parametrize(
        "respell",
        [
            lambda line: b" " + line,
            lambda line: line.replace(b'"status":', b'"status": '),
            lambda line: json.dumps(
                dict(reversed(json.loads(line).items())),
                separators=(",", ":"),
            ).encode() + b"\n",
        ],
        ids=["leading-space", "spaced-status", "reversed-keys"],
    )
    def test_resume_refuses_a_non_canonical_line(
        self, spec_path, tmp_path, capsys, reference, respell
    ):
        """Each spelling parses to the recorded row and names its run_id,
        but finalize would copy it verbatim: a result no single-shot run
        writes.  Resume refuses it, the checkpoint untouched."""
        out = tmp_path / "noncanonical.jsonl"
        lines = reference.splitlines(keepends=True)[:10]
        lines[4] = respell(lines[4])
        assert lines[4] != reference.splitlines(keepends=True)[4]
        checkpoint_path(out).write_bytes(b"".join(lines))
        assert run_cli(spec_path, out, "--resume") == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot resume: ") and err.endswith(
            "; delete the checkpoint to start over\n"
        )
        assert checkpoint_path(out).read_bytes() == b"".join(lines)
        assert not out.exists()

    def test_resume_without_checkpoint_fails(self, spec_path, tmp_path, capsys):
        out = tmp_path / "missing.jsonl"
        assert run_cli(spec_path, out, "--resume") == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_resume_rejects_foreign_checkpoint(
        self, spec_path, tmp_path, capsys
    ):
        out = tmp_path / "foreign.jsonl"
        checkpoint_path(out).write_text(
            '{"campaign":"someone-else","run_id":0}\n'
        )
        assert run_cli(spec_path, out, "--resume") == 2
        assert "belongs to campaign" in capsys.readouterr().err

    def test_resume_rejects_seed_mismatch(self, spec_path, tmp_path, capsys):
        """Resuming under a different campaign seed would finalize a
        mixed-seed file that matches no single-shot run."""
        out = tmp_path / "reseeded.jsonl"
        assert run_cli(spec_path, out, "--stop-after", "3") == 3
        capsys.readouterr()
        assert run_cli(spec_path, out, "--resume", "--seed", "99") == 2
        assert "seed mismatch" in capsys.readouterr().err
        # The checkpoint must survive the refused resume untouched.
        assert checkpoint_path(out).exists()
        assert run_cli(spec_path, out, "--resume") == 0

    def test_resume_rejects_shrunken_grid(self, spec_path, tmp_path, capsys):
        """Recorded run_ids beyond the edited grid's size are a spec change,
        not a resumable checkpoint."""
        out = tmp_path / "reshaped.jsonl"
        assert run_cli(spec_path, out, "--stop-after", "12") == 3
        capsys.readouterr()
        spec_path.write_text(json.dumps({**SPEC, "repetitions": 1}))
        assert run_cli(spec_path, out, "--resume") == 2
        assert "spec changed" in capsys.readouterr().err

    def test_resume_rejects_reordered_axes(self, spec_path, tmp_path, capsys):
        """Same grid size, different coordinates: the recorded rows' derived
        seeds no longer match their run_ids."""
        out = tmp_path / "reordered.jsonl"
        assert run_cli(spec_path, out, "--stop-after", "3") == 3
        capsys.readouterr()
        spec_path.write_text(
            json.dumps({**SPEC, "scenarios": ["worst_case", "fault-free"]})
        )
        assert run_cli(spec_path, out, "--resume") == 2
        assert "seed mismatch" in capsys.readouterr().err

    def test_stale_checkpoint_without_resume_fails(
        self, spec_path, tmp_path, capsys
    ):
        out = tmp_path / "stale.jsonl"
        assert run_cli(spec_path, out, "--stop-after", "2") == 3
        capsys.readouterr()
        assert run_cli(spec_path, out) == 2
        assert "pass --resume" in capsys.readouterr().err

    def test_abandoned_iterator_rows_complete_via_skip(self):
        """The API-level contract the CLI is built on: rows already yielded
        plus a resumed stream over their run_ids reproduce the full grid."""
        spec = CampaignSpec.from_mapping(SPEC)
        stream = iter_campaign(spec, workers=2)
        first = list(itertools.islice(stream, 5))
        stream.close()  # the "kill": in-flight work is discarded
        done = {row["run_id"] for row in first}
        rest = list(iter_campaign(spec, skip_run_ids=done))
        merged = sorted(first + rest, key=lambda row: row["run_id"])
        assert jsonl(merged) == jsonl(run_campaign(spec))


class TestCheckpointScan:
    def test_scan_recovers_ids_and_offset(self, tmp_path):
        path = tmp_path / "ckpt.partial"
        intact = '{"run_id":0}\n{"run_id":4}\n'
        path.write_text(intact + '{"run_id":9,"to')
        ids, offset = recorded_runs(path, None, lambda _: None)
        assert ids == {0, 4}
        assert offset == len(intact.encode())

    def test_scan_rejects_rows_without_run_id(self, tmp_path):
        path = tmp_path / "alien.partial"
        path.write_text('{"status":"ok"}\n')
        with pytest.raises(ValueError, match="run_id"):
            recorded_runs(path, None)

    def test_validate_resume_is_the_shared_api_guard(self, tmp_path):
        """API callers get the same protection as the CLI: valid checkpoints
        return their line index (keyed by run_id), foreign/reshaped/reseeded
        ones raise."""
        spec = CampaignSpec.from_mapping(SPEC)
        path = tmp_path / "api.partial"
        rows = list(itertools.islice(iter_campaign(spec), 4))
        path.write_text(jsonl(rows))
        folded = []
        index, intact = validate_resume(
            spec, path, on_row=lambda row, count: folded.extend([row] * count)
        )
        assert index.keys() == {0, 1, 2, 3}
        assert intact == path.stat().st_size

        def bare(row):
            return {k: v for k, v in row.items() if k not in COORDS}

        # The one decode pass hands every row over, a group's once.
        assert list(map(bare, folded)) == list(map(bare, rows))
        data = path.read_bytes()
        for row in rows:
            offset, length = index[row["run_id"]]
            assert data[offset:offset + length] == (
                jsonl([row]).encode()
            )

        path.write_text(jsonl([{**rows[0], "campaign": "other"}]))
        with pytest.raises(ValueError, match="belongs to campaign"):
            validate_resume(spec, path)

        path.write_text(jsonl([{**rows[0], "run_id": 10_000}]))
        with pytest.raises(ValueError, match="spec changed"):
            validate_resume(spec, path)

        path.write_text(jsonl([{**rows[0], "seed": rows[0]["seed"] ^ 1}]))
        with pytest.raises(ValueError, match="seed mismatch"):
            validate_resume(spec, path)

    def test_finalize_sorts_and_dedupes(self, tmp_path):
        checkpoint = tmp_path / "out.jsonl.partial"
        rows = [
            {"run_id": 2, "x": "late"},
            {"run_id": 0, "x": "first"},
            {"run_id": 2, "x": "duplicate"},
            {"run_id": 1, "x": "mid"},
        ]
        checkpoint.write_text(jsonl(rows))
        out = tmp_path / "out.jsonl"
        finalize_checkpoint(checkpoint, out)
        merged = list(iter_rows(out))
        assert [row["run_id"] for row in merged] == [0, 1, 2]
        assert merged[2]["x"] == "late"  # first occurrence wins
        assert not checkpoint.exists()


class TestStreamingProperties:
    def test_expansion_is_lazy(self):
        """First row arrives without materializing a huge grid."""
        spec = CampaignSpec.from_mapping(
            {**SPEC, "scenarios": ["fault-free"], "repetitions": 1_000_000}
        )
        stream = iter_campaign(spec)
        row = next(stream)
        stream.close()
        assert row["run_id"] == 0
        assert row["status"] == "ok"

    def test_progress_counts_skipped_runs_as_completed(self):
        spec = CampaignSpec.from_mapping(SPEC)
        total = spec.total_runs
        skip = {0, 1, 2}
        seen = []
        list(
            iter_campaign(
                spec,
                skip_run_ids=skip,
                progress=lambda done, _total: seen.append((done, _total)),
            )
        )
        assert seen == [(i, total) for i in range(len(skip) + 1, total + 1)]


class TestAccountingInvariant:
    def test_sent_equals_delivered_plus_dropped_on_both_engines(self):
        """Partitions (timed filter) and withholding policies (lockstep)
        must both balance the message ledger."""
        spec = CampaignSpec(
            name="ledger",
            algorithms=("class-3",),
            models=((4, 1, 0),),
            engines=("lockstep", "timed"),
            scenarios=("fault-free", "worst_case", "partition_heal",
                       "lossy_channel"),
            repetitions=2,
            seed=3,
        )
        rows = run_campaign(spec)
        ok = [row for row in rows if row["status"] == "ok"]
        assert ok
        engines_with_drops = set()
        for row in ok:
            assert (
                row["messages_sent"]
                == row["messages_delivered"] + row["messages_dropped"]
            ), row["run_id"]
            if row["messages_dropped"] > 0:
                engines_with_drops.add(row["engine"])
        # The adversarial cells must exercise real drops on both branches.
        assert engines_with_drops == {"lockstep", "timed"}
