"""One-column designs (d = 1): the optimum puts all mass on one row.

f(p) = sum p_i w_i x_i^2 is linear in p, so every optimizer and both
certificates must pick the row with the largest w_i x_i^2.  That row's
mass is 1, where the lift coefficients and the positive-mass bound
divide by (1 - p_i)^d = 0; none of them may divide there, warn, or fail.
"""

import warnings

import numpy as np
import pytest

import glmdopt as g

X = np.array([[1.0], [2.0], [0.5]])
W = np.array([1.0, 0.3, 2.0])  # w x^2 = 1, 1.2, 0.5: row 1 wins


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def random_column(rng):
    m = int(rng.integers(2, 9))
    return rng.uniform(-3.0, 3.0, (m, 1)), rng.uniform(0.1, 2.0, m)


def vertex(m, i):
    p = np.zeros(m)
    p[i] = 1.0
    return p


def test_lift_one_puts_all_mass_on_the_best_row():
    res = g.lift_one_optimize(X, W)
    assert res.converged and res.certificate.optimal
    np.testing.assert_array_equal(res.p_opt, [0.0, 1.0, 0.0])
    assert res.f_opt == pytest.approx(1.2, rel=1e-15)


@pytest.mark.parametrize("start", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.1, 0.7]])
@pytest.mark.parametrize("period", [1, 2, 10])
def test_lift_one_from_any_start_and_safeguard_period(start, period):
    # every round is now the random sweep, so what used to vary with the
    # safeguard period is the sweep order: seed it with the period
    res = g.lift_one_optimize(X, W, p0=start, opts=g.LiftOneOptions(seed=period))
    assert res.converged
    np.testing.assert_array_equal(res.p_opt, [0.0, 1.0, 0.0])


def test_certificate_accepts_the_vertex_optimum():
    cert = g.verify_optimal(X, W, [0.0, 1.0, 0.0])
    assert cert.optimal
    full = cert.per_point[1]
    assert full.case == "positive-mass" and full.passed
    assert np.isfinite([full.lhs, full.rhs]).all()


@pytest.mark.parametrize("p", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
def test_certificate_rejects_every_other_design(p):
    assert not g.verify_optimal(X, W, p).optimal


def test_exact_design_and_saturated_check_pick_the_best_row():
    np.testing.assert_array_equal(g.optimize_exact(X, W, 5), [0, 5, 0])
    assert g.check_saturated(X, W, [1])[0]
    assert not g.check_saturated(X, W, [0])[0]


def test_random_columns_agree_on_the_best_row():
    rng = np.random.default_rng(11)
    for _ in range(40):
        Xr, w = random_column(rng)
        m = len(w)
        best = int(np.argmax(w * Xr[:, 0] ** 2))
        res = g.lift_one_optimize(Xr, w, opts=g.LiftOneOptions(seed=int(rng.integers(100))))
        assert res.converged
        np.testing.assert_array_equal(res.p_opt, vertex(m, best))
        assert g.verify_optimal(Xr, w, vertex(m, best)).optimal
        np.testing.assert_array_equal(g.optimize_exact(Xr, w, 7), 7 * vertex(m, best))
        assert g.check_saturated(Xr, w, [best])[0]
