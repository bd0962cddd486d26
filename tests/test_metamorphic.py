"""Metamorphic properties: results that must not change when the weights are
rescaled, the rows permuted, or the model reparametrised."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import glmdopt as g
from conftest import gamma_2x4, logit_2x3, matrix_2x2

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def poisson_2_5():
    X = np.array([[1.0, *row] for row in itertools.product([1.0, -1.0], repeat=5)])
    beta = np.r_[0.0, np.random.default_rng(3).uniform(-0.5, 0.5, 5)]
    return X, g.compute_weights(X, g.GlmModel("poisson-log", beta))


def poisson_square(beta):
    X = matrix_2x2()
    return X, g.compute_weights(X, g.GlmModel("poisson-log", np.array(beta)))


def log_f(X, w, p):
    sign, logdet = np.linalg.slogdet(X.T @ (X * (p * w)[:, None]))
    assert sign > 0
    return logdet


X25, W25 = poisson_2_5()
P25 = g.lift_one_optimize(X25, W25).p_opt
U25 = np.full(len(X25), 1.0 / len(X25))


@PROPERTY
@given(k=st.integers(-100, 100))
def test_weight_scaling_leaves_lift_one_and_certificate_unchanged(k):
    w = W25 * 10.0**k
    res = g.lift_one_optimize(X25, w)
    assert res.converged
    assert np.max(np.abs(res.p_opt - P25)) <= 1e-9
    assert g.verify_optimal(X25, w, P25).optimal
    assert not g.verify_optimal(X25, w, U25).optimal
    assert g.relative_efficiency(X25, w, U25, P25) == pytest.approx(
        g.relative_efficiency(X25, W25, U25, P25), rel=1e-12
    )


@pytest.mark.parametrize("scale", [1e-100, 1e-60, 1e60, 1e100])
def test_weight_scaling_leaves_exact_design_unchanged(scale):
    n = g.optimize_exact(X25, W25, 1000)
    np.testing.assert_array_equal(g.optimize_exact(X25, W25 * scale, 1000), n)


# The published cases whose D-optimal allocation is unique.
PUBLISHED = {
    "logit-2x3": lambda: logit_2x3()[::2],
    "gamma-2x4": lambda: gamma_2x4()[::2],
    "poisson-A": lambda: poisson_square([5.5, -0.18, -0.22]),
    "poisson-B": lambda: poisson_square([-0.91, 0.04, -0.69]),
}
PERMUTATION_CASES = {**PUBLISHED, "poisson-2^5": poisson_2_5}


@pytest.mark.parametrize("case", sorted(PERMUTATION_CASES))
@PROPERTY
@given(data=st.data())
def test_row_permutation_leaves_log_f_and_verdict_unchanged(case, data):
    X, w = PERMUTATION_CASES[case]()
    m = len(X)
    perm = np.array(data.draw(st.permutations(range(m))))
    base = g.lift_one_optimize(X, w)
    res = g.lift_one_optimize(X[perm], w[perm])
    assert res.converged == base.converged
    assert log_f(X[perm], w[perm], res.p_opt) == pytest.approx(
        log_f(X, w, base.p_opt), rel=1e-12, abs=1e-9
    )
    uniform = np.full(m, 1.0 / m)
    assert (g.verify_optimal(X[perm], w[perm], uniform).optimal
            == g.verify_optimal(X, w, uniform).optimal)
    assert g.verify_optimal(X[perm], w[perm], base.p_opt[perm]).optimal


@pytest.mark.parametrize("case", sorted(PUBLISHED))
@PROPERTY
@given(data=st.data())
def test_reparametrisation_leaves_optimum_unchanged(case, data):
    # X -> XA with beta -> A^-1 beta keeps every linear predictor, so the
    # weights, and the optimal allocation, are the same
    X, w = PUBLISHED[case]()
    d = X.shape[1]
    entries = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d * d, max_size=d * d))
    A = np.array(entries).reshape(d, d)
    assume(np.linalg.cond(A) < 100.0)
    base = g.lift_one_optimize(X, w)
    res = g.lift_one_optimize(X @ A, w)
    assert res.converged and base.converged
    assert np.max(np.abs(res.p_opt - base.p_opt)) <= 1e-6


@pytest.mark.parametrize("scale", [1e-110, 1.0, 1e110])
def test_saturated_verdict_does_not_depend_on_the_scale_of_X(scale):
    # X -> scale * X is a reparametrisation; det(X_I)^2 then leaves the
    # double range, which must not decide the verdict (pytest turns a
    # RuntimeWarning into an error)
    X, w = PUBLISHED["poisson-A"]()
    for support in itertools.combinations(range(len(X)), X.shape[1]):
        assert not g.check_saturated(X * scale, w, support)[0]
    X, w = PUBLISHED["gamma-2x4"]()
    assert g.check_saturated(X * scale, w, (0, 4, 5, 6, 7))[0]
