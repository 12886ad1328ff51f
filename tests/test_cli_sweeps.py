"""Pinned CLI sweeps: the three reference ``ptf-lab run`` commands, output for output.

``tests/fixtures/cli_sweeps/`` holds each command's CSV without its
``wall_ms`` column and its JSON sidecar without ``config.out``, the only
entries that vary from run to run.  Each test reruns one command through
``cli.main`` and compares the CSV cell for cell, the sidecar as JSON, and
stdout with the sidecar's cells.
"""

import csv
import json
from pathlib import Path

import pytest

from ptf_lab import cli

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "cli_sweeps"

# fixture name -> the ``ptf-lab run`` arguments that made it, without --out
COMMANDS = {
    "iterative": "--learner iterative --d 2,6 --n 64,256 --trials 30 --seed 7",
    "batch": "--learner batch --d 3,6 --n 4096 --alpha 0.4,0.5 --trials 10 --seed 8",
    "sample_search": (
        "--learner sample_search --d 1,8 --n 4096 --trials 200 --seed 9 --dirichlet-alpha 0.5"
    ),
}


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.mark.parametrize("name", COMMANDS)
def test_reference_command_matches_fixture(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert cli.main(["run", *COMMANDS[name].split(), "--out", str(out)]) == 0

    rows = read_rows(out)
    wall = rows[0].index("wall_ms")
    got = [row[:wall] + row[wall + 1 :] for row in rows]
    want = read_rows(FIXTURE_DIR / f"{name}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (name, i)

    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["config"].pop("out") == str(out)
    fixture = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    assert sidecar == fixture
    stdout = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in stdout] == fixture["cells"]
