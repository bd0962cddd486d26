"""The command line prints library warnings as plain ``warning:`` lines.

Under ``python -m glmdopt`` the first frame outside the package is the
interpreter's own module runner, so a warning's usual ``file:line``
prefix names nothing the user wrote.  The warning adds one stderr line
and changes neither stdout nor the exit code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DUPLICATE = "warning: design matrix has duplicate rows; they will share mass"


def glmdopt(*args, warnings="default"):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS=warnings)
    return subprocess.run(
        [sys.executable, "-m", "glmdopt", *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps({"matrix": matrix, "family_link": "binary-logit",
                                "beta": [0.1, 0.2], "total": 6}))
    return str(path)


@pytest.mark.parametrize("command", ["weights", "optimize", "exact"])
def test_duplicate_rows_warn_once_as_a_plain_line(tmp_path, command):
    dup = glmdopt(command, "--config", write(tmp_path, "dup.json", [[1, 0], [1, 0], [1, 1]]),
                  "--out", "json")
    assert dup.returncode == 0
    assert dup.stderr.splitlines() == [DUPLICATE]
    quiet = glmdopt(command, "--config", write(tmp_path, "dup.json", [[1, 0], [1, 0], [1, 1]]),
                    "--out", "json", warnings="ignore")
    assert (quiet.returncode, quiet.stdout, quiet.stderr) == (0, dup.stdout, "")


def test_warning_precedes_the_error_line(tmp_path):
    cfg = write(tmp_path, "bad.json", [[1, 0], [1, 0]])  # duplicate rows, rank 1
    bad = glmdopt("optimize", "--config", cfg)
    assert bad.returncode == 3
    assert bad.stdout == ""
    assert bad.stderr.splitlines()[0] == DUPLICATE
    assert bad.stderr.splitlines()[1].startswith("numerical error:")


def test_overflowing_weight_is_an_error_without_a_warning(tmp_path):
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"matrix": [[1, 0], [1, 1], [1, 8]], "family_link": "poisson-log",
                               "beta": [0.0, 100.0]}))  # eta = 800 on row 2
    run = glmdopt("weights", "--config", str(cfg))
    assert run.returncode == 3
    assert run.stderr.splitlines() == [
        "numerical error: row 2: weight inf at eta = 800 overflows the double range"
    ]
