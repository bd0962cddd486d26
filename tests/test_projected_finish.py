"""Lift-one's Newton finish moves many support points per step.

The finish works on the support plus every outside point with
delta_i > d, and tries each Newton step first as a projected step that
clamps the masses it would make negative.  So its first try, at round 2,
certifies wide designs in a few steps; round 1 never tries it.  The
reported allocation is a fixed point of ``allocation``, so certifying
``p_opt`` again gives back the attached certificate.
"""

import itertools
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

import glmdopt as g
from glmdopt import cli
from glmdopt.objective import allocation

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demos"
FAMILIES = ("binary-logit", "poisson-log", "binary-probit")


def factorial(k):
    levels = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
    return np.column_stack([np.ones(2**k), levels])


def two_factor(k):
    """2^k main effects plus every two-factor interaction, with an intercept."""
    F = factorial(k)[:, 1:]
    pairs = [F[:, i] * F[:, j] for i, j in itertools.combinations(range(k), 2)]
    return np.column_stack([np.ones(2**k), F, *pairs])


def two_factor_logit():
    X = two_factor(9)
    beta = np.random.default_rng(9).uniform(-0.5, 0.5, X.shape[1])
    return X, g.compute_weights(X, g.GlmModel("binary-logit", beta))


def ternary_logit():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(2048), rng.integers(-1, 2, (2048, 11)).astype(float)])
    beta = rng.uniform(-1.0, 1.0, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the design repeats some rows
        return X, g.compute_weights(X, g.GlmModel("binary-logit", beta))


@pytest.mark.parametrize("problem", [two_factor_logit, ternary_logit], ids=["2^9-2fi", "ternary-2048x12"])
def test_wide_designs_certify_under_defaults(problem):
    X, w = problem()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = g.lift_one_optimize(X, w)
    assert res.converged and res.certificate.optimal, (res.rounds, res.polish_steps)
    assert res.rounds <= 10 and 1 <= res.polish_steps <= 60, (res.rounds, res.polish_steps)
    M = X.T @ (X * (res.p_opt * w)[:, None])
    delta = w * np.einsum("ij,ji->i", X, np.linalg.solve(M, X.T))
    assert delta.max() <= X.shape[1] * (1.0 + 1e-6)


@pytest.mark.parametrize("k", [3, 5])
def test_one_round_never_finishes(k):
    X = factorial(k)
    w = g.compute_weights(X, g.GlmModel("binary-logit", np.r_[0.0, np.linspace(-0.5, 0.5, k)]))
    res = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(max_rounds=1))
    assert res.rounds == 1 and res.polish_steps == 0 and not res.converged


def test_one_round_cli_run_exits_4(tmp_path, capsys):
    cfg = json.loads((DEMO / "configs" / "logistic_2x3.json").read_text())
    cfg.update(matrix=str(DEMO / "data" / "factorial_2x3.csv"), options={"max_rounds": 1})
    path = tmp_path / "one_round.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["optimize", "--config", str(path), "--out", "json"]) == 4
    assert json.loads(capsys.readouterr().out)["converged"] is False


def test_allocation_is_idempotent():
    rng = np.random.default_rng(14)
    for _ in range(300):
        m = int(rng.integers(1, 2000))
        p = rng.dirichlet(np.full(m, rng.uniform(0.05, 2.0)))
        p[rng.random(m) < 0.3] = 0.0
        if not p.any():
            continue
        p *= (1.0 + rng.uniform(-1e-13, 1e-13)) / p.sum()
        q = allocation(p)
        assert math.fsum(q) == 1.0 and np.all(q >= 0.0)
        assert np.array_equal(allocation(q), q)
        assert np.abs(q - p / p.sum()).max() <= 1e-15


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("family", FAMILIES)
def test_p_opt_is_a_fixed_point_of_its_certificate(k, family):
    X = factorial(k)
    for s in range(5):
        slopes = np.random.default_rng(s).uniform(-0.5, 0.5, k)
        w = g.compute_weights(X, g.GlmModel(family, np.r_[0.0, slopes]))
        res = g.lift_one_optimize(X, w)
        assert np.array_equal(allocation(res.p_opt), res.p_opt), s
        assert g.verify_optimal(X, w, res.p_opt) == res.certificate, s

