"""JSON output stays strict JSON when an objective value leaves the double
range: a non-finite f is emitted as null, without a numpy warning."""

import json
import warnings

import numpy as np
import pytest

import glmdopt as g
from glmdopt import cli
from conftest import matrix_2x2, matrix_2x3_dummy

# poisson 2x2 whose intercept 300 puts det M(p) near e^900, beyond the double range
BETA_300 = [300.0, -0.18, -0.22]


def reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def run_strict(capsys, argv):
    """Run the CLI with every warning recorded; parse its output strictly."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv + ["--out", "json"])
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert captured.err == ""
    return rc, json.loads(captured.out, parse_constant=reject)


def write(tmp_path, name, **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def poisson_300(tmp_path, **extra):
    return write(tmp_path, "p300.json", matrix=matrix_2x2().tolist(),
                 family_link="poisson-log", beta=BETA_300, seed=0, **extra)


def test_optimize_reports_null_f(tmp_path, capsys):
    rc, report = run_strict(capsys, ["optimize", "--config", poisson_300(tmp_path)])
    assert rc == 0
    assert report["f"] is None
    assert report["converged"] and report["optimal"]
    assert sum(report["p"]) == pytest.approx(1.0)


def test_exact_reports_null_f(tmp_path, capsys):
    rc, report = run_strict(capsys, ["exact", "--config", poisson_300(tmp_path, total=20)])
    assert rc == 0
    assert report["f"] is None and report["total"] == 20


def test_ew_reports_null_f(tmp_path, capsys):
    prior = [
        {"dist": "uniform", "params": [299.0, 301.0]},
        {"dist": "uniform", "params": [0.0, 2.0]},
        {"dist": "uniform", "params": [0.0, 1.5]},
        {"dist": "uniform", "params": [0.0, 3.0]},
    ]
    cfg = write(tmp_path, "ew.json", matrix=matrix_2x3_dummy().tolist(),
                family_link="poisson-log", prior=prior, seed=0)
    rc, report = run_strict(capsys, ["ew", "--config", cfg])
    assert rc == 0
    assert report["f"] is None and report["optimal"]


def test_efficiency_reports_null_f_test_and_f_ref(tmp_path, capsys):
    cfg = poisson_300(tmp_path)
    test_alloc = tmp_path / "test.txt"
    ref_alloc = tmp_path / "ref.txt"
    test_alloc.write_text("0.25\n0.25\n0.25\n0.25\n")
    ref_alloc.write_text("0.4\n0.2\n0.2\n0.2\n")
    rc, report = run_strict(
        capsys, ["efficiency", "--config", cfg, str(test_alloc), str(ref_alloc)]
    )
    assert rc == 0
    assert report["f_test"] is None and report["f_ref"] is None
    assert np.isfinite(report["efficiency"]) and report["efficiency"] > 1.0


def test_finite_f_is_emitted_unchanged(tmp_path, capsys):
    # the default JSON keeps the exact float and the exact layout
    X = matrix_2x2()
    beta = [5.5, -0.18, -0.22]
    cfg = write(tmp_path, "p.json", matrix=X.tolist(), family_link="poisson-log",
                beta=beta, seed=0)
    assert cli.main(["optimize", "--config", cfg, "--out", "json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out, parse_constant=reject)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    w = g.compute_weights(X, g.GlmModel("poisson-log", np.array(beta)))
    expected = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=0)).f_opt
    assert report["f"] == expected
