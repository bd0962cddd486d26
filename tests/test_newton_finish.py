"""Lift-one ends in an active-set Newton finish, tried every second round.

The finish takes Newton steps on the support (plus the vertex directions)
until the optimality certificate holds; ``polish_steps`` counts them.
On the published unique optima it must land where long coordinate
ascent goes, and at least as high; on designs where coordinate ascent
alone stalls it must still certify.
"""

import itertools
import warnings

import numpy as np
import pytest

import glmdopt as g
from conftest import gamma_2x4, logit_2x3, matrix_2x3_dummy, poisson_2x2, uniform_box_prior
from glmdopt.certify import certified
from glmdopt.liftone import _finish
from glmdopt.objective import information_inverse, leverages, log_objective

# Any gain counts as progress, so the sweep alone runs to its limit.
LONG = g.LiftOneOptions(max_rounds=3000, tol=1e-300)


def uniform_box():
    X = matrix_2x3_dummy()
    return X, None, g.expected_weights(X, "poisson-log", uniform_box_prior())


PUBLISHED = {
    "logit-2x3": (logit_2x3, [0.216, 0.186, 0.198, 0.206, 0.115, 0.080], 5e-4),
    "poisson-A": (lambda: poisson_2x2([5.5, -0.18, -0.22]), [0.18, 0.27, 0.26, 0.29], 5e-3),
    "poisson-B": (lambda: poisson_2x2([-0.91, 0.04, -0.69]), [0.213, 0.313, 0.163, 0.311], 5e-4),
    "gamma-2x4": (gamma_2x4, [0.2, 0.0, 0.0, 0.0, 0.2, 0.2, 0.2, 0.2], 5e-4),
    "uniform-box": (uniform_box, [0.0, 0.0, 0.25, 0.25, 0.25, 0.25], 5e-4),
}


@pytest.mark.parametrize("name", PUBLISHED)
def test_finish_agrees_with_long_lift_one_runs(name):
    problem, published, tol = PUBLISHED[name]
    X, _, w = problem()
    res = g.lift_one_optimize(X, w)
    long = g.lift_one_optimize(X, w, opts=LONG)
    assert res.converged and res.certificate.optimal
    assert np.abs(res.p_opt - published).max() < tol
    assert np.abs(res.p_opt - long.p_opt).max() < 1e-6
    assert log_objective(X, w, res.p_opt) >= log_objective(X, w, long.p_opt) - 1e-12
    assert res.rounds <= long.rounds


def factorial(k):
    levels = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
    return np.column_stack([np.ones(2**k), levels])


def quietly(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the designs below repeat some rows
        return fn(*args, **kwargs)


def ternary_logit(m, d):
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(m), rng.integers(-1, 2, (m, d - 1)).astype(float)])
    beta = rng.uniform(-1.0, 1.0, d)
    return X, quietly(g.compute_weights, X, g.GlmModel("binary-logit", beta))


def test_random_ternary_logit_design_converges():
    # coordinate ascent stalls short of the certificate on this design;
    # the finish certifies it in a few steps
    X, w = ternary_logit(512, 10)
    res = quietly(g.lift_one_optimize, X, w)
    assert res.converged and res.certificate.optimal
    assert 1 <= res.polish_steps <= 10
    M = X.T @ (X * (res.p_opt * w)[:, None])
    delta = w * np.einsum("ij,ji->i", X, np.linalg.solve(M, X.T))
    assert delta.max() <= 10 * (1.0 + 1e-6)


@pytest.mark.parametrize("seed", range(10))
def test_non_unique_optimum_converges(seed):
    # duplicate and proportional rows make the optimum a face, not a point:
    # the KKT system of the Newton step is singular there
    rng = np.random.default_rng(seed)
    base = np.column_stack([np.ones(6), rng.uniform(-1.0, 1.0, (6, 2))])
    X = np.vstack([base, base[:3], 2.0 * base[3:]])
    w = np.tile(rng.uniform(0.2, 1.0, 6), 2)
    w[9:] /= 4.0  # a doubled row with a quarter weight carries the same information
    res = quietly(g.lift_one_optimize, X, w, opts=g.LiftOneOptions(seed=seed))
    assert res.converged, (res.rounds, res.polish_steps)
    assert np.all(res.p_opt >= 0.0) and abs(res.p_opt.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("seed", [0, 3])
def test_support_one_point_too_large_converges(seed):
    # the sweep settles on 16 points where the optimum needs 15: log f is
    # flat to rounding along the direction that empties one of them, so
    # the finish must follow it to the boundary
    X = factorial(5)
    slopes = np.random.default_rng(502).uniform(-0.5, 0.5, 5)
    w = g.compute_weights(X, g.GlmModel("poisson-log", np.r_[0.0, slopes]))
    res = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=seed, max_rounds=20000))
    assert res.converged
    assert np.count_nonzero(res.p_opt) == 15


def test_finish_certifies_from_arbitrary_starts():
    rng = np.random.default_rng(9)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(d + 1, 30))
        X = np.column_stack([np.ones(m), rng.integers(-1, 2, (m, d - 1)).astype(float)])
        if np.linalg.matrix_rank(X) < d:
            continue
        w = rng.uniform(0.1, 1.0, m)
        p = rng.dirichlet(np.full(m, 0.3))
        if np.linalg.matrix_rank(X[p > 0]) < d:
            continue
        p, steps = _finish(X, w, p, d)[:2]
        assert certified(p, leverages(X, w, information_inverse(X, w, p)), d), steps


def test_no_finish_in_round_one():
    X, _, w = logit_2x3()
    res = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(max_rounds=1))
    assert not res.converged
    assert res.polish_steps == 0


def test_finish_is_deterministic():
    X, w = ternary_logit(64, 6)
    a = quietly(g.lift_one_optimize, X, w, opts=g.LiftOneOptions(seed=3))
    b = quietly(g.lift_one_optimize, X, w, opts=g.LiftOneOptions(seed=3))
    assert np.array_equal(a.p_opt, b.p_opt) and a.polish_steps == b.polish_steps
