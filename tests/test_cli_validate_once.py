"""Each CLI command validates the design matrix once.

The command loads and checks X, then hands it to the library under
``objective.validated``, so a duplicate-row matrix warns once, not once
per layer.  The rank tests those library calls skip still run in the
command: a singular design or allocation stays a numerical error.
"""

import json
import warnings

import pytest

from glmdopt import cli

DUPLICATE = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
PRIOR = [{"dist": "uniform", "params": [0.0, 1.0]}] * 3


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def config(tmp_path, matrix, **extra):
    """A poisson-log config: the given beta, or else the uniform prior."""
    cfg = dict(matrix=matrix, family_link="poisson-log", **extra)
    if "beta" not in cfg:
        cfg["prior"] = PRIOR
    return write(tmp_path, "cfg.json", json.dumps(cfg))


def commands(tmp_path, matrix, prior=False):
    beta = {} if prior else {"beta": [0.1, 0.2, -0.3]}
    cfg = config(tmp_path, matrix, total=10, **beta)
    uniform = write(tmp_path, "uniform.txt", "1\n" * len(matrix))
    return {
        "weights": ["weights", "--config", cfg],
        "optimize": ["optimize", "--config", cfg],
        "exact": ["exact", "--config", cfg],
        "verify": ["verify", "--config", cfg, uniform],
        "efficiency": ["efficiency", "--config", cfg, uniform, uniform],
        "ew": ["ew", "--config", cfg],
    }


def run(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    capsys.readouterr()
    return code, [w for w in caught if "duplicate rows" in str(w.message)]


@pytest.mark.parametrize("command", ["weights", "optimize", "exact", "verify", "efficiency", "ew"])
def test_one_duplicate_row_warning_per_command(tmp_path, capsys, command):
    argv = commands(tmp_path, DUPLICATE, prior=command == "ew")[command]
    code, caught = run(argv, capsys)
    assert code == 0
    assert len(caught) == 1


RANK_ONE = [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0], [4.0, 4.0, 4.0], [5.0, 5.0, 5.0]]


@pytest.mark.parametrize("command", ["optimize", "exact", "verify", "efficiency", "ew"])
def test_rank_deficient_matrix_is_a_numerical_error(tmp_path, capsys, command):
    argv = commands(tmp_path, RANK_ONE, prior=command == "ew")[command]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical error:")


def test_singular_allocation_is_a_numerical_error(tmp_path, capsys):
    matrix = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 0.0]]
    cfg = config(tmp_path, matrix, beta=[0.1, 0.2, -0.3])
    # the rows carrying mass, 0, 1 and 4, span only the plane x_3 = 0
    singular = write(tmp_path, "singular.txt", "1\n1\n0\n0\n1\n")
    uniform = write(tmp_path, "uniform.txt", "1\n" * 5)
    assert cli.main(["verify", "--config", cfg, singular]) == cli.EXIT_NUMERICAL
    assert "singular" in capsys.readouterr().err
    assert cli.main(["efficiency", "--config", cfg, uniform, singular]) == cli.EXIT_NUMERICAL
    assert "singular" in capsys.readouterr().err
    # a singular test design has efficiency 0 against a regular reference
    assert cli.main(["efficiency", "--config", cfg, "--out", "json", singular, uniform]) == 0
    assert json.loads(capsys.readouterr().out)["efficiency"] == 0.0
