"""Leverage kernel: agreement with the determinant oracles, scale
invariance, and one weight table shared by every weight path."""

import itertools

import numpy as np
import pytest

import glmdopt as g
from conftest import gamma_2x4, poisson_2x2, random_problem
from glmdopt.exchange import _pair_leverages, _scaled_pair_profile
from glmdopt.objective import information_inverse, leverages, lift_coefficients


def _well_conditioned(X, w, q):
    info = X.T @ (X * (np.asarray(q, float) * w)[:, None])
    return np.linalg.cond(info) <= 1e6


def test_lift_coefficients_match_determinant_profile(rng):
    checked = 0
    for _ in range(100):
        X, w = random_problem(rng)
        m, d = X.shape
        p = rng.dirichlet(np.ones(m))
        if not _well_conditioned(X, w, p):
            continue
        f = g.objective(X, w, p)
        delta = leverages(X, w, information_inverse(X, w, p))
        a, b = lift_coefficients(p, delta, d)
        for i in range(m):
            prof = g.lift_profile(X, w, p, i)
            scale = max(prof.a, prof.b)
            assert abs(a[i] * f - prof.a) <= 1e-9 * scale
            assert abs(b[i] * f - prof.b) <= 1e-9 * scale
            checked += 1
    assert checked > 300


def test_pair_leverage_profile_matches_determinant_profile(rng):
    checked = 0
    for _ in range(60):
        X, w = random_problem(rng)
        m = X.shape[0]
        n = g.round_allocation(rng.dirichlet(np.ones(m)), 40)
        if g.objective(X, w, n) <= 0 or not _well_conditioned(X, w, n):
            continue
        f = g.objective(X, w, n)
        G = _pair_leverages(X, w, n)
        for i, j in itertools.combinations(range(m), 2):
            s = int(n[i] + n[j])
            if s == 0:
                continue
            oracle = g.pair_profile(X, w, n, i, j)
            scaled = _scaled_pair_profile(G, n, i, j, s)
            # compare the profiles where they matter: on every integer split
            for z in range(s + 1):
                want = oracle.A * z * (s - z) + oracle.B * z + oracle.C * (s - z) + oracle.D
                got = scaled.A * z * (s - z) + scaled.B * z + scaled.C * (s - z) + scaled.D
                assert abs(got * f - want) <= 1e-9 * f * max(1.0, got)
            checked += 1
    assert checked > 100


def test_certificate_sides_match_lifted_objective(rng):
    # lhs of every point check is the objective along the lift: f_i(1/2)
    # on zero-mass points, f_i(0) on positive-mass points
    for _ in range(30):
        X, w = random_problem(rng)
        m, d = X.shape
        res = g.lift_one_optimize(X, w)
        p = res.p_opt
        f = g.objective(X, w, p)
        for pc in res.certificate.per_point:
            assert type(pc.lhs) is float and type(pc.rhs) is float
            assert type(pc.passed) is bool
            if pc.case == "zero-mass":
                direct = g.objective(X, w, g.lift_allocation(p, pc.index, 0.5))
            elif p[pc.index] <= 1.0 / d:
                direct = g.objective(X, w, g.lift_allocation(p, pc.index, 0.0))
            else:
                continue
            assert abs(pc.lhs - direct) <= 1e-9 * f


def test_poisson_factorial_is_invariant_to_an_underflowing_intercept():
    # shifting the intercept by -120 scales every weight by e^-120 and
    # pushes det(M) into subnormals; the design must not move
    levels = np.array(list(itertools.product((-1.0, 1.0), repeat=5)))
    X = np.column_stack([np.ones(32), levels])
    slopes = np.random.default_rng(3).uniform(-0.5, 0.5, 5)
    opts = g.LiftOneOptions(seed=0, max_rounds=20000)
    results = []
    for intercept in (0.0, -120.0):
        beta = np.concatenate([[intercept], slopes])
        w = g.compute_weights(X, g.GlmModel("poisson-log", beta))
        res = g.lift_one_optimize(X, w, opts=opts)
        assert res.converged
        results.append(res.p_opt)
    assert np.abs(results[0] - results[1]).max() <= 1e-6


@pytest.mark.parametrize(
    "problem",
    [gamma_2x4, lambda: poisson_2x2([1.0, 1.0, -2.0])],
    ids=["gamma_2x4", "poisson_2x2_minimal_support"],
)
def test_saturated_optima_converge_for_every_seed(problem):
    # near a saturated optimum the gain of the best lift falls below
    # rounding long before the certificate holds; the polish must still
    # get there
    X, _, w = problem()
    for seed in range(50):
        res = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=seed))
        assert res.converged, seed


@pytest.mark.parametrize(
    "family",
    ["binary-logit", "binary-probit", "binary-cloglog", "binary-loglog", "poisson-log"],
)
def test_single_draw_point_prior_equals_plugin_weights_bitwise(family):
    rng = np.random.default_rng(200)
    X = np.column_stack([np.ones(200), rng.uniform(-1.0, 1.0, (200, 3))])
    beta = np.array([0.3, -0.8, 0.5, 1.1])
    w = g.compute_weights(X, g.GlmModel(family, beta))
    ew = g.expected_weights(
        X, family, [g.PointPrior(b) for b in beta],
        method="monte-carlo", samples=1, seed=0,
    )
    assert np.array_equal(ew, w)
