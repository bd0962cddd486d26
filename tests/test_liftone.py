"""Lift-one coordinate ascent: closed-form steps, convergence, determinism."""

import numpy as np
import pytest

import glmdopt as g
from conftest import (
    gamma_2x4,
    logit_2x3,
    matrix_2x2,
    poisson_2x2,
    random_problem,
)
from oracles import LiftProfile, maximize_profile


def test_options_validation():
    opts = g.LiftOneOptions()
    assert opts.max_rounds == 1000 and opts.tol == 1e-10
    with pytest.raises(g.DimensionMismatch):
        g.LiftOneOptions(max_rounds=0)
    with pytest.raises(g.DimensionMismatch):
        g.LiftOneOptions(tol=0.0)


def test_maximize_profile_against_grid(rng):
    # closed-form argmax of a z(1-z)^(d-1) + b (1-z)^d versus a dense scan
    zs = np.linspace(0.0, 1.0, 20001)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        a = float(rng.uniform(0.0, 5.0))
        b = float(rng.uniform(0.0, 5.0))
        if a + b == 0.0:
            continue
        prof = LiftProfile(a=a, b=b, d=d)
        z_star, val = maximize(prof)
        grid = prof.a * zs * (1 - zs) ** (d - 1) + prof.b * (1 - zs) ** d
        assert val >= grid.max() - 1e-9 * max(grid.max(), 1.0)
        assert val == pytest.approx(prof.value(z_star), rel=1e-12)
        assert 0.0 <= z_star <= 1.0


def maximize(prof):
    return maximize_profile(prof)


def test_maximize_profile_boundary_cases():
    # a <= b d: decreasing on [0, 1), maximum at z = 0
    z, val = maximize(LiftProfile(a=1.0, b=1.0, d=3))
    assert z == 0.0 and val == 1.0
    # b = 0: pure lift term, interior maximum at z = 1/d
    z, val = maximize(LiftProfile(a=2.0, b=0.0, d=4))
    assert z == pytest.approx(0.25, rel=1e-12)
    # d = 1: profile is linear in z
    z, val = maximize(LiftProfile(a=3.0, b=1.0, d=1))
    assert z == 1.0 and val == 3.0


def test_logistic_scenario_converges():
    X, _, w = logit_2x3()
    res = g.lift_one_optimize(X, w)
    assert res.converged
    assert res.certificate.optimal
    assert res.rounds >= 1
    assert res.p_opt.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.f_opt == pytest.approx(g.objective(X, w, res.p_opt), rel=1e-12)


def test_result_improves_on_uniform(rng):
    for _ in range(10):
        X, w = random_problem(rng)
        m = X.shape[0]
        res = g.lift_one_optimize(X, w)
        f_unif = g.objective(X, w, np.full(m, 1.0 / m))
        assert res.f_opt >= f_unif * (1.0 - 1e-12)


def test_same_seed_is_bitwise_deterministic():
    X, _, w = logit_2x3()
    r1 = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=7))
    r2 = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=7))
    assert np.array_equal(r1.p_opt, r2.p_opt)
    assert r1.f_opt == r2.f_opt
    assert r1.rounds == r2.rounds


def test_different_seeds_reach_same_objective():
    X, _, w = gamma_2x4()
    vals = [
        g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=s)).f_opt
        for s in (0, 1, 2, 3)
    ]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-9)


def test_weight_scaling_leaves_design_unchanged():
    # f is linear in each weight, so w -> 10 w scales f by 10^d and leaves
    # the optimum where it was.  10 w itself rounds (only powers of two are
    # exact in binary), so the fixpoint can wobble at float level; observed
    # agreement is ~5e-9 and we assert an order of safety margin above it.
    X, _, w = logit_2x3()
    d = X.shape[1]
    r1 = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=3))
    r2 = g.lift_one_optimize(X, 10.0 * w, opts=g.LiftOneOptions(seed=3))
    assert np.abs(r1.p_opt - r2.p_opt).max() <= 1e-7
    assert r2.f_opt == pytest.approx(10.0**d * r1.f_opt, rel=1e-9)


def test_explicit_start_point():
    X, _, w = poisson_2x2([1.0, 1.0, -2.0])
    p0 = np.array([0.7, 0.1, 0.1, 0.1])
    res = g.lift_one_optimize(X, w, p0=p0)
    assert res.converged
    np.testing.assert_allclose(
        np.sort(res.p_opt), [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-9
    )
    with pytest.raises(g.DimensionMismatch):
        g.lift_one_optimize(X, w, p0=np.array([0.5, 0.5]))


def test_singular_design_raises():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(g.SingularDesign):
        g.lift_one_optimize(X, np.ones(3))
    # singular start point on a healthy matrix
    X2 = matrix_2x2()
    with pytest.raises(g.SingularDesign):
        g.lift_one_optimize(X2, np.ones(4), p0=np.array([1.0, 0.0, 0.0, 0.0]))


def test_saturated_problem_gives_uniform_mass():
    # m = d: the D-optimal design puts mass 1/d everywhere regardless of w
    X = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
    res = g.lift_one_optimize(X, np.array([0.2, 3.0, 0.7]))
    assert res.converged
    np.testing.assert_allclose(res.p_opt, np.full(3, 1 / 3), atol=1e-10)


def test_converged_results_certify(rng):
    # random smoke across families; convergence implies a passing
    # certificate by construction, so assert the examples do converge
    fams = ["poisson-log", "binary-logit", "binary-probit"]
    n_conv = 0
    for k in range(30):
        X, w = random_problem(rng, m_max=8, d_max=4, family=fams[k % 3])
        res = g.lift_one_optimize(X, w)
        if res.converged:
            n_conv += 1
            assert res.certificate.optimal
            cert = g.verify_optimal(X, w, res.p_opt, tol=1e-6)
            assert cert.optimal
    assert n_conv >= 25  # flat profiles may legitimately miss certification


def test_max_rounds_cap_reported_honestly():
    X, _, w = logit_2x3()
    res = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(max_rounds=1))
    assert res.rounds == 1
    # one round cannot reach stationarity here
    assert not res.converged


def test_certificate_always_attached():
    X, _, w = logit_2x3()
    res = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(max_rounds=1))
    assert isinstance(res.certificate, g.OptimalityCertificate)
    assert len(res.certificate.per_point) == X.shape[0]
