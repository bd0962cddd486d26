"""Command-line interface: configs, subcommands, output modes, exit codes."""

import json

import numpy as np
import pytest

import glmdopt as g
from glmdopt import cli
from conftest import matrix_2x2, matrix_2x3, matrix_2x3_dummy

N_PUBLISHED_2X3 = [621, 535, 569, 593, 331, 231]

LOGIT_BETA = [-2.5, 0.15, 0.70, 0.10]


def write_cfg(tmp_path, name="cfg.json", **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def logit_cfg(tmp_path, **extra):
    return write_cfg(
        tmp_path,
        matrix=matrix_2x3().tolist(),
        family_link="binary-logit",
        beta=LOGIT_BETA,
        **extra,
    )


def prior_cfg_2x3(tmp_path, **extra):
    prior = [
        {"dist": "uniform", "params": [-3, 3]},
        {"dist": "uniform", "params": [0, 2]},
        {"dist": "uniform", "params": [0, 1.5]},
        {"dist": "uniform", "params": [0, 3]},
    ]
    return write_cfg(
        tmp_path,
        matrix=matrix_2x3_dummy().tolist(),
        family_link="poisson-log",
        prior=prior,
        **extra,
    )


def run_json(capsys, argv):
    rc = cli.main(argv + ["--out", "json"])
    return rc, json.loads(capsys.readouterr().out)


def test_weights_text_output(tmp_path, capsys):
    cfg = logit_cfg(tmp_path)
    assert cli.main(["weights", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "eta" in out and "0.144431" in out
    assert len(out.strip().splitlines()) == 7


def test_weights_json_output(tmp_path, capsys):
    cfg = logit_cfg(tmp_path)
    rc, report = run_json(capsys, ["weights", "--config", cfg])
    assert rc == 0
    X, model = matrix_2x3(), g.GlmModel("binary-logit", np.array(LOGIT_BETA))
    assert report["weights"] == pytest.approx(g.compute_weights(X, model).tolist())
    assert report["eta"] == pytest.approx((X @ model.beta).tolist())
    assert report["family_link"] == "binary-logit"


def test_matrix_csv_with_header(tmp_path, capsys):
    (tmp_path / "X.csv").write_text(
        "intercept,a,b_lin,b_quad\n"
        + "\n".join(",".join(str(v) for v in row) for row in matrix_2x3().tolist())
    )
    cfg = write_cfg(
        tmp_path, matrix="X.csv", family_link="binary-logit", beta=LOGIT_BETA
    )
    rc, report = run_json(capsys, ["weights", "--config", cfg])
    assert rc == 0
    assert len(report["weights"]) == 6


def test_matrix_csv_without_header(tmp_path, capsys):
    (tmp_path / "X.csv").write_text(
        "\n".join(",".join(str(v) for v in row) for row in matrix_2x2().tolist())
    )
    cfg = write_cfg(
        tmp_path, matrix="X.csv", family_link="poisson-log", beta=[1.0, 1.0, -2.0]
    )
    rc, report = run_json(capsys, ["weights", "--config", cfg])
    assert rc == 0
    assert report["eta"] == pytest.approx([0.0, 4.0, -2.0, 2.0])


def test_matrix_csv_bad_cell_reports_line(tmp_path, capsys):
    (tmp_path / "X.csv").write_text("h1,h2\n1,2\n1,oops\n")
    cfg = write_cfg(tmp_path, matrix="X.csv", family_link="poisson-log", beta=[0, 0])
    assert cli.main(["weights", "--config", cfg]) == 2
    assert "line 3" in capsys.readouterr().err


def test_matrix_csv_missing_file(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, matrix="nope.csv", family_link="poisson-log", beta=[0, 0]
    )
    assert cli.main(["weights", "--config", cfg]) == 2
    assert "nope.csv" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["weights", "--config", str(tmp_path / "none.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_not_json(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert cli.main(["weights", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_optimize_then_verify_round_trip(tmp_path, capsys):
    cfg = logit_cfg(tmp_path)
    rc, report = run_json(capsys, ["optimize", "--config", cfg])
    assert rc == 0
    assert report["converged"] and report["optimal"]
    alloc = tmp_path / "p.txt"
    alloc.write_text("\n".join(repr(x) for x in report["p"]))
    rc, verdict = run_json(capsys, ["verify", "--config", cfg, str(alloc)])
    assert rc == 0
    assert verdict["optimal"] is True
    assert len(verdict["per_point"]) == 6
    assert verdict["tolerance"] == pytest.approx(1e-7)


def test_optimize_text_output(tmp_path, capsys):
    cfg = logit_cfg(tmp_path)
    assert cli.main(["optimize", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "p (3 decimals):" in out and "converged = True" in out


def test_exact_reproduces_published_allocation(tmp_path, capsys):
    cfg = logit_cfg(tmp_path, total=2880)
    rc, report = run_json(capsys, ["exact", "--config", cfg])
    assert rc == 0
    assert report["n"] == N_PUBLISHED_2X3
    assert report["total"] == 2880
    assert report["f"] > 0


def test_exact_total_validation(tmp_path, capsys):
    assert cli.main(["exact", "--config", logit_cfg(tmp_path)]) == 2
    capsys.readouterr()
    assert cli.main(["exact", "--config", logit_cfg(tmp_path, total=3)]) == 2
    capsys.readouterr()
    assert cli.main(["exact", "--config", logit_cfg(tmp_path, total=9.5)]) == 2
    capsys.readouterr()
    assert cli.main(["exact", "--config", logit_cfg(tmp_path, total=10, n_starts=0)]) == 2


def test_efficiency_between_allocation_files(tmp_path, capsys):
    cfg = logit_cfg(tmp_path)
    X = matrix_2x3()
    w = g.compute_weights(X, g.GlmModel("binary-logit", np.array(LOGIT_BETA)))
    res = g.lift_one_optimize(X, w)
    opt, uni = tmp_path / "opt.txt", tmp_path / "uni.txt"
    opt.write_text("\n".join(repr(float(x)) for x in res.p_opt))
    uni.write_text("\n".join(["1"] * 6))
    rc, report = run_json(capsys, ["efficiency", "--config", cfg, str(uni), str(opt)])
    assert rc == 0
    expect = g.relative_efficiency(X, w, np.full(6, 1 / 6), res.p_opt)
    assert report["efficiency"] == pytest.approx(expect, rel=1e-12)
    assert report["f_test"] < report["f_ref"]


def test_allocation_file_validation(tmp_path, capsys):
    cfg = logit_cfg(tmp_path)
    short = tmp_path / "short.txt"
    short.write_text("0.5\n0.5\n")
    assert cli.main(["verify", "--config", cfg, str(short)]) == 2
    assert "2 entries for 6" in capsys.readouterr().err
    neg = tmp_path / "neg.txt"
    neg.write_text("0.5\n0.7\n-0.2\n0\n0\n0\n")
    assert cli.main(["verify", "--config", cfg, str(neg)]) == 2
    assert "negative" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\nx\n0\n0\n0\n0.5\n")
    assert cli.main(["verify", "--config", cfg, str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_ew_closed_form_reaches_published_design(tmp_path, capsys):
    cfg = prior_cfg_2x3(tmp_path)
    rc, report = run_json(capsys, ["ew", "--config", cfg])
    assert rc == 0
    assert report["converged"] and report["optimal"]
    assert report["method"] == "closed-form-poisson"
    target = [0.0, 0.0, 0.25, 0.25, 0.25, 0.25]
    assert np.max(np.abs(np.array(report["p"]) - target)) < 5e-4
    assert report["expected_weights"] == pytest.approx(
        [0.236826, 3.350972, 9.184494, 1.749918, 24.760521, 67.864739], rel=1e-5
    )


def test_ew_monte_carlo_needs_seed(tmp_path, capsys):
    cfg = prior_cfg_2x3(tmp_path, ew={"method": "monte-carlo", "samples": 2000})
    assert cli.main(["ew", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err
    assert cli.main(["ew", "--config", cfg, "--seed", "5"]) == 0


def test_ew_verify_uses_prior_weights(tmp_path, capsys):
    cfg = prior_cfg_2x3(tmp_path)
    alloc = tmp_path / "p.txt"
    alloc.write_text("0\n0\n0.25\n0.25\n0.25\n0.25\n")
    rc, report = run_json(capsys, ["verify", "--config", cfg, str(alloc)])
    assert rc == 0
    assert report["optimal"] is True


def test_json_output_is_byte_identical_across_runs(tmp_path, capsys):
    cfg = prior_cfg_2x3(tmp_path, ew={"method": "monte-carlo", "samples": 3000}, seed=9)
    assert cli.main(["ew", "--config", cfg, "--out", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["ew", "--config", cfg, "--out", "json"]) == 0
    assert capsys.readouterr().out == first


def test_config_needs_exactly_one_of_beta_and_prior(tmp_path, capsys):
    both = write_cfg(
        tmp_path, "both.json",
        matrix=matrix_2x2().tolist(), family_link="poisson-log",
        beta=[0, 0, 0], prior=[{"dist": "point", "params": [0]}] * 3,
    )
    assert cli.main(["weights", "--config", both]) == 2
    capsys.readouterr()
    # optimize and exact must refuse the ambiguity too, not silently pick beta
    assert cli.main(["optimize", "--config", both]) == 2
    capsys.readouterr()
    neither = write_cfg(
        tmp_path, "neither.json",
        matrix=matrix_2x2().tolist(), family_link="poisson-log",
    )
    assert cli.main(["weights", "--config", neither]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_bad_prior_component(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        matrix=matrix_2x2().tolist(),
        family_link="poisson-log",
        prior=[{"dist": "gaussian", "params": [0, 1]}] * 3,
    )
    assert cli.main(["weights", "--config", cfg]) == 2
    assert "gaussian" in capsys.readouterr().err


def test_unknown_option_key(tmp_path, capsys):
    cfg = logit_cfg(tmp_path, options={"max_iter": 5})
    assert cli.main(["optimize", "--config", cfg]) == 2
    assert "max_iter" in capsys.readouterr().err


def test_safeguard_period_is_no_longer_an_option(tmp_path, capsys):
    # every lift-one round is the random sweep: there is no safeguard round to space out
    with pytest.raises(TypeError):
        g.LiftOneOptions(safeguard_period=10)
    cfg = logit_cfg(tmp_path, options={"safeguard_period": 10})
    assert cli.main(["optimize", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "unknown option keys" in err and "safeguard_period" in err


def test_fractional_round_cap_is_a_config_error(tmp_path, capsys):
    cfg = logit_cfg(tmp_path, options={"max_rounds": 2.5})
    assert cli.main(["optimize", "--config", cfg]) == 2
    assert "max_rounds" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n_starts", "seed"])
def test_boolean_count_is_a_config_error(tmp_path, capsys, key):
    # JSON true is a Python bool, which isinstance(..., int) would let through
    cfg = logit_cfg(tmp_path, total=12, **{key: True})
    assert cli.main(["exact", "--config", cfg]) == 2
    assert key in capsys.readouterr().err


def test_unknown_family(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, matrix=matrix_2x2().tolist(), family_link="beta-logit", beta=[0, 0, 0]
    )
    assert cli.main(["weights", "--config", cfg]) == 2
    assert "family_link" in capsys.readouterr().err


def test_singular_matrix_is_numerical_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        matrix=[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
        family_link="poisson-log",
        beta=[0.0, 0.0],
    )
    assert cli.main(["optimize", "--config", cfg]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_gamma_sign_change_is_numerical_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        matrix=matrix_2x2().tolist(),
        family_link="gamma-inverse",
        beta=[0.5, 1.0, 0.0],
        shape=1.0,
    )
    assert cli.main(["weights", "--config", cfg]) == 3
    assert capsys.readouterr().err


def test_non_convergence_exit_code(tmp_path, capsys):
    cfg = logit_cfg(tmp_path, options={"max_rounds": 1})
    rc = cli.main(["optimize", "--config", cfg, "--out", "json"])
    assert rc == 4
    # report still printed for inspection
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is False


def test_parser_exit_codes(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["optimize"]) == 2
    capsys.readouterr()
    assert cli.main(["weights", "--config", "x.json", "--out", "xml"]) == 2


def test_seed_must_be_integer(tmp_path, capsys):
    cfg = logit_cfg(tmp_path, seed="abc")
    assert cli.main(["optimize", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err
