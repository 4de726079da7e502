"""The classification sweep script, run as a subprocess: rows and exit codes."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "scripts" / "sweep_classification.py"


def sweep(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(SWEEP), *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_certified_sweep_agrees_with_the_table():
    res = sweep("--pmax", "3", "--qmax", "3", "--certify")
    assert res.returncode == 0, res.stderr
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert res.stdout.splitlines()[0] == (
        "p,q,type,ring,simple,matrix_rank,k,ideal_dim,corner_ring")
    assert len(rows) == 16
    assert all(row["corner_ring"] == row["ring"] for row in rows)


def test_unwritable_output_is_an_io_error(tmp_path):
    res = sweep("--pmax", "1", "--qmax", "1", "--output", str(tmp_path / "no" / "x.csv"))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert len(res.stderr.splitlines()) == 1


# each case is (argv, what the one error line must name)
@pytest.mark.parametrize("args", [
    (("--pmax", "9", "--qmax", "9", "--certify"), "pmax + qmax <= 16"),  # MAX_IDEMPOTENT_N
    (("--pmax", "-1", "--qmax", "3", "--certify"), ">= 0"),  # an empty grid checks nothing
    (("--pmax", "20000", "--qmax", "20000"), "MAX_SWEEP_CELLS"),
    (("--pmax", "0", "--qmax", "65537"), "MAX_CLASSIFY_N"),
    (("--pmax", "0", "--qmax", "32768"), "MAX_SWEEP_N_SUM"),
    (("--pmax", "3", "--qmax", "65532"), "MAX_SWEEP_N_SUM"),
])
def test_bad_grid_is_refused_before_any_row(args):
    argv, named = args
    res = sweep(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert len(res.stderr.splitlines()) == 1
    assert named in res.stderr
