"""SIGTERM ends ``campaign run`` and ``fuzz run`` the way Ctrl-C does: one
``interrupted after …`` line, exit 130, the checkpoint kept for ``--resume``
(which refuses another seed untouched, then finishes on the grid's pinned
bytes) and no worker process left behind."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import equivalences as table
import repro
from repro.cli import main


def survivors(marker: str):
    """Live processes whose command line names ``marker``."""
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if marker.encode() in cmdline.read_bytes():
                found.append(cmdline.parent.name)
        except OSError:
            continue  # exited while we looked
    return found


@pytest.mark.parametrize(
    "name, slow", [("kill-cmp", ["--backend", "scalar"]), ("fuzz-11", [])]
)
def test_sigterm_interrupts_like_ctrl_c(tmp_path, capsys, name, slow):
    grid, out = table.GRIDS[name], tmp_path / "out.jsonl"
    argv = [part.format(spec=table.spec_argument(grid, tmp_path)) for part in grid.argv]
    argv += ["--out", str(out)]
    state = Path(f"{out}.partial")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    stderr = tmp_path / "stderr.txt"
    with stderr.open("w") as sink:  # not a pipe: an orphan would hold it open
        process = subprocess.Popen([sys.executable, "-m", "repro.cli", *argv, *slow],
                                   env=env, stderr=sink, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not (state.exists() and state.read_bytes().count(b"\n") > 50):
            assert process.poll() is None, "run ended before it could be stopped"
            assert time.monotonic() < deadline
            time.sleep(0.005)
        process.terminate()
        process.wait(timeout=60)
    finally:
        if process.poll() is None:  # timed out: take its pool workers down too
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    err = stderr.read_text()
    assert process.returncode == 130
    assert "\ninterrupted after " in err and "retained at" in err
    assert "Traceback" not in err
    deadline = time.monotonic() + 5
    while survivors(str(out)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert survivors(str(out)) == []
    before = state.read_bytes()
    capsys.readouterr()
    assert main(argv + ["--seed", "8", "--resume"]) == 2
    assert capsys.readouterr().out == "" and state.read_bytes() == before
    assert main(argv + ["--resume"]) == 0
    assert table.sha256(out.read_bytes()) == grid.sha["out"]
