"""Every config or input mistake exits 2 with an ``error:`` line.

Numbers in the config are JSON ints or floats, shapes must agree, and
allocation and matrix entries must be finite; a mistake in any of them
is a configuration error, never a traceback and never a "numerical
error".  Singular designs and domain violations stay exit 3 (see
``test_cli.py`` and ``test_cli_validate_once.py``).
"""

import json

import pytest

from glmdopt import cli

MATRIX = [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [1.0, -1.0, -1.0]]
POINTS = [{"dist": "point", "params": [0.1]}] * 2


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def config(tmp_path, **cfg):
    cfg = {"matrix": MATRIX, "family_link": "poisson-log", **cfg}
    if "prior" not in cfg:
        cfg.setdefault("beta", [0.1, 0.2, -0.3])
    return write(tmp_path, "cfg.json", json.dumps(cfg))


def config_error(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG, err
    assert err.startswith("error:"), err
    return err


@pytest.mark.parametrize("params", [["a", 1], [None, 1], [True, 1], [0, [1]]])
@pytest.mark.parametrize("command", ["weights", "ew"])
def test_uniform_prior_bounds_must_be_numbers(tmp_path, capsys, params, command):
    prior = [{"dist": "uniform", "params": params}] + POINTS
    err = config_error(capsys, [command, "--config", config(tmp_path, prior=prior)])
    assert "prior component 0" in err


@pytest.mark.parametrize("value", ["a", [[1]], False])
def test_point_prior_value_must_be_a_number(tmp_path, capsys, value):
    prior = [{"dist": "point", "params": [value]}] + POINTS
    err = config_error(capsys, ["ew", "--config", config(tmp_path, prior=prior)])
    assert "prior component 0" in err


@pytest.mark.parametrize("family, key, value", [
    ("gamma-inverse", "shape", "abc"),
    ("gamma-inverse", "shape", [1]),
    ("normal-identity", "variance", [1]),
    ("normal-identity", "variance", "abc"),
])
def test_shape_and_variance_must_be_numbers(tmp_path, capsys, family, key, value):
    # with beta they reach GlmModel; with a prior they reach expected_weights
    beta = config(tmp_path, family_link=family, beta=[1.0, 0.1, 0.1], **{key: value})
    assert key in config_error(capsys, ["optimize", "--config", beta])
    prior = [{"dist": "uniform", "params": [1.0, 2.0]}] + POINTS
    cfg = config(tmp_path, family_link=family, prior=prior, seed=1, ew={"samples": 100}, **{key: value})
    assert key in config_error(capsys, ["weights", "--config", cfg])


@pytest.mark.parametrize("text", ["1\ninf\n1\n1\n", "1\nnan\n1\n1\n", "-inf\n1\n1\n1\n"])
def test_allocation_entries_must_be_finite(tmp_path, capsys, text):
    cfg = config(tmp_path)
    bad = write(tmp_path, "bad.txt", text)
    uniform = write(tmp_path, "uniform.txt", "1\n" * 4)
    assert "non-finite" in config_error(capsys, ["verify", "--config", cfg, bad])
    assert "non-finite" in config_error(capsys, ["efficiency", "--config", cfg, bad, uniform])
    assert "non-finite" in config_error(capsys, ["efficiency", "--config", cfg, uniform, bad])


@pytest.mark.parametrize("command", ["weights", "optimize", "exact"])
def test_matrix_with_fewer_rows_than_columns(tmp_path, capsys, command):
    cfg = config(tmp_path, matrix=MATRIX[:2], total=10)
    assert "bad matrix" in config_error(capsys, [command, "--config", cfg])


def test_matrix_csv_with_a_nan_cell(tmp_path, capsys):
    write(tmp_path, "X.csv", "a,b,c\n1,1,1\n1,nan,-1\n1,-1,1\n1,-1,-1\n")
    cfg = config(tmp_path, matrix="X.csv")
    assert "non-finite" in config_error(capsys, ["optimize", "--config", cfg])


@pytest.mark.parametrize("matrix", [[[1, 10**400, 0]] + MATRIX, [[1, 1e400, 0]] + MATRIX])
def test_matrix_entries_beyond_the_double_range(tmp_path, capsys, matrix):
    cfg = config(tmp_path, matrix=matrix)
    assert "bad matrix" in config_error(capsys, ["weights", "--config", cfg])


@pytest.mark.parametrize("beta", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4]])
@pytest.mark.parametrize("command", ["weights", "optimize", "exact", "verify"])
def test_beta_length_must_match_the_columns(tmp_path, capsys, beta, command):
    cfg = config(tmp_path, beta=beta, total=10)
    extra = [write(tmp_path, "uniform.txt", "1\n" * 4)] if command == "verify" else []
    err = config_error(capsys, [command, "--config", cfg, *extra])
    assert "'beta' has length" in err


def test_beta_beyond_the_double_range(tmp_path, capsys):
    cfg = config(tmp_path, beta=[10**400, 0, 0])
    assert "beta" in config_error(capsys, ["weights", "--config", cfg])


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "7", None])
@pytest.mark.parametrize("command", ["optimize", "exact", "ew"])
def test_config_seed_must_be_a_non_negative_integer(tmp_path, capsys, seed, command):
    prior = {"prior": [{"dist": "uniform", "params": [0.0, 1.0]}] * 3} if command == "ew" else {}
    cfg = config(tmp_path, seed=seed, total=10, **prior)
    err = config_error(capsys, [command, "--config", cfg])
    assert "'seed' must be a non-negative integer" in err


@pytest.mark.parametrize("command", ["weights", "optimize", "exact", "ew"])
def test_command_line_seed_must_be_non_negative(tmp_path, capsys, command):
    prior = {"prior": [{"dist": "uniform", "params": [0.0, 1.0]}] * 3} if command == "ew" else {}
    cfg = config(tmp_path, total=10, **prior)
    err = config_error(capsys, [command, "--config", cfg, "--seed", "-1"])
    assert "'seed' must be a non-negative integer" in err
    assert cli.main([command, "--config", cfg, "--seed", "0"]) == 0


@pytest.mark.parametrize("options, message", [
    ({"bogus": 1}, "unknown option keys"),
    ({"max_rounds": 0}, "bad options"),
    ({"tol": -1.0}, "bad options"),
    ({"tol": "x"}, "bad options: tol must be a positive finite number, got 'x'"),
    ({"tol": True}, "bad options: tol must be a positive finite number, got True"),
    ([1], "'options' must be an object"),
])
def test_options_block_is_checked_by_optimize_and_refused_by_exact(tmp_path, capsys, options, message):
    cfg = config(tmp_path, options=options, total=10)
    assert message in config_error(capsys, ["optimize", "--config", cfg])
    # exact's lift-one start runs under default options, so a block would be ignored
    assert "'options' applies to optimize only" in config_error(capsys, ["exact", "--config", cfg])


def uniform_prior(**component):
    return [{"dist": "uniform", "params": [0.0, 1.0], **component}] + POINTS


@pytest.mark.parametrize("command, cfg, message", [
    ("weights", {"matrix": None}, "config needs 'matrix'"),
    ("weights", {"matrix": 5}, "'matrix' must be a CSV path string or a list of rows"),
    ("weights", {"family_link": "gamma-inverse", "beta": [1.0, 0.1, 0.1], "shape": 10**400},
     "'shape' is beyond the double range"),
    ("weights", {"prior": []}, "'prior' must be a non-empty list"),
    ("weights", {"prior": {"dist": "point"}}, "'prior' must be a non-empty list"),
    ("weights", {"prior": [1] + POINTS}, "prior component 0 must be an object"),
    ("weights", {"prior": uniform_prior(params=[0.0])}, "prior component 0: uniform needs params [lo, hi]"),
    ("weights", {"prior": uniform_prior(dist="point", params=[0.1, 0.2])},
     "prior component 0: point needs params [value]"),
    ("weights", {"prior": [{"dist": "point"}] + POINTS}, "prior component 0: point needs a value"),
    ("ew", {"prior": uniform_prior(), "ew": {"samples": 0}}, "'ew.samples' must be a positive integer"),
    ("ew", {"prior": uniform_prior(), "ew": {"samples": 2.5}}, "'ew.samples' must be a positive integer"),
    ("ew", {}, "the 'ew' subcommand needs 'prior'"),
    ("optimize", {"prior": uniform_prior()}, "this command needs 'beta'"),
    ("optimize", {"family_link": "gamma-inverse", "beta": [1.0, 0.1, 0.1]}, "bad model: gamma-inverse requires shape"),
])
def test_config_keys_are_checked(tmp_path, capsys, command, cfg, message):
    assert message in config_error(capsys, [command, "--config", config(tmp_path, **cfg)])


@pytest.mark.parametrize("text", ["[1, 2]", "\"matrix\"", "3"])
def test_config_root_must_be_an_object(tmp_path, capsys, text):
    path = write(tmp_path, "cfg.json", text)
    assert "config root must be a JSON object" in config_error(capsys, ["weights", "--config", path])


@pytest.mark.parametrize("text, message", [
    ("", "is empty"),
    ("\n ,  \n\n", "is empty"),
    ("a,b,c\n", "has a header but no data rows"),
])
def test_matrix_csv_needs_data_rows(tmp_path, capsys, text, message):
    write(tmp_path, "X.csv", text)
    err = config_error(capsys, ["weights", "--config", config(tmp_path, matrix="X.csv")])
    assert "matrix CSV" in err and message in err


@pytest.mark.parametrize("total", [2**52, 2**63 + 5, 10**30])
def test_exact_total_beyond_the_exact_rounding_range(tmp_path, capsys, total):
    err = config_error(capsys, ["exact", "--config", config(tmp_path, total=total)])
    assert "'total'" in err and "2**52" in err


def test_allocation_file_must_be_readable_and_carry_mass(tmp_path, capsys):
    cfg = config(tmp_path)
    missing = str(tmp_path / "missing.txt")
    zero = write(tmp_path, "zero.txt", "0\n0\n0\n0\n")
    assert "cannot read allocation file" in config_error(capsys, ["verify", "--config", cfg, missing])
    assert "allocation file" in config_error(capsys, ["efficiency", "--config", cfg, zero, missing])
    assert "sums to zero" in config_error(capsys, ["verify", "--config", cfg, zero])


def test_allocation_file_blank_lines_are_skipped(tmp_path, capsys):
    cfg = config(tmp_path)
    spaced = write(tmp_path, "spaced.txt", "\n1\n\n  \n1\n1\n1\n\n")
    plain = write(tmp_path, "plain.txt", "1\n1\n1\n1\n")
    assert cli.main(["verify", "--config", cfg, "--out", "json", spaced]) == cli.EXIT_OK
    spaced_out = capsys.readouterr().out
    assert cli.main(["verify", "--config", cfg, "--out", "json", plain]) == cli.EXIT_OK
    assert spaced_out == capsys.readouterr().out
