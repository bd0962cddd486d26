"""Optimality certificates: per-point conditions and saturated-design checks."""

import numpy as np
import pytest

import glmdopt as g
from conftest import (
    FACTORIAL_2X3_RULES,
    TWO_BY_THREE_LEVEL_RULES,
    gamma_2x4,
    logit_2x3,
    matrix_2x3,
    matrix_two_by_three_level,
    poisson_2x2,
)


def test_optimizer_certificate_matches_verify(rng):
    X, model, w = logit_2x3()
    res = g.lift_one_optimize(X, w)
    assert res.converged
    cert = g.verify_optimal(X, w, res.p_opt)
    assert cert.optimal
    assert cert == res.certificate


def test_uniform_gamma_allocation_fails_certificate():
    X, model, w = gamma_2x4()
    m = X.shape[0]
    cert = g.verify_optimal(X, w, np.full(m, 1.0 / m))
    assert not cert.optimal
    assert any(not pc.passed for pc in cert.per_point)
    assert cert.tolerance == pytest.approx(1e-7)


def test_saturated_optimum_case_labels():
    # three masses at exactly 1/d plus a dropped point
    X, model, w = poisson_2x2([1.0, 1.0, -2.0])
    p = np.array([1.0, 1.0, 0.0, 1.0]) / 3.0
    cert = g.verify_optimal(X, w, p)
    assert cert.optimal
    cases = [pc.case for pc in cert.per_point]
    assert cases == ["positive-mass", "positive-mass", "zero-mass", "positive-mass"]
    zero = cert.per_point[2]
    assert zero.passed and zero.note == ""
    # dropping a support point of a saturated design kills the determinant,
    # up to roundoff relative to the objective's scale
    f = g.objective(X, w, p)
    for i in (0, 1, 3):
        assert abs(cert.per_point[i].lhs) <= 1e-9 * f


def test_tiny_mass_clamped_with_note():
    X, model, w = poisson_2x2([1.0, 1.0, -2.0])
    p = np.array([1.0 / 3.0, 1.0 / 3.0, 1e-13, 1.0 / 3.0])
    cert = g.verify_optimal(X, w, p)
    assert cert.optimal
    pc = cert.per_point[2]
    assert pc.case == "zero-mass"
    assert "clamped to zero" in pc.note
    assert pc.passed


def test_mass_above_reciprocal_dimension_fails():
    X, model, w = poisson_2x2([1.0, 1.0, -2.0])
    cert = g.verify_optimal(X, w, np.array([0.5, 0.25, 0.25, 0.0]))
    assert not cert.optimal
    pc = cert.per_point[0]
    assert pc.case == "positive-mass"
    assert not pc.passed
    assert "exceeds 1/d" in pc.note
    assert pc.lhs == pytest.approx(0.5)
    assert pc.rhs == pytest.approx(1.0 / 3.0)


def test_verify_validation():
    X, model, w = poisson_2x2([1.0, 1.0, -2.0])
    with pytest.raises(g.DimensionMismatch):
        g.verify_optimal(X, w[:3], np.full(4, 0.25))
    # two support points cannot span three parameters
    with pytest.raises(g.SingularDesign):
        g.verify_optimal(X, w, np.array([0.5, 0.5, 0.0, 0.0]))


def test_certificate_sync_invariant():
    pc = g.PointCheck(0, "zero-mass", 0.0, 1.0, False)
    with pytest.raises(g.SingularDesign):
        g.OptimalityCertificate(optimal=True, per_point=(pc,), tolerance=1e-7)
    cert = g.OptimalityCertificate(optimal=False, per_point=(pc,), tolerance=1e-7)
    assert not cert.optimal


@pytest.mark.parametrize(
    "matrix, rules",
    [
        (matrix_two_by_three_level, TWO_BY_THREE_LEVEL_RULES),
        (matrix_2x3, FACTORIAL_2X3_RULES),
    ],
    ids=["two-by-three-level", "factorial-2x3"],
)
def test_check_saturated_matches_reduced_inequalities(matrix, rules, rng):
    X = matrix()
    for support, conds in rules.items():
        for _ in range(100):
            v = rng.uniform(0.2, 5.0, X.shape[0])
            ok, details = g.check_saturated(X, 1.0 / v, support)
            assert [pc.index for pc in details] == [row for row, _ in conds]
            for pc, (_, cond) in zip(details, conds):
                assert pc.passed == cond(v)
                assert pc.margin == pc.rhs - pc.lhs
                assert pc.passed == (pc.lhs <= pc.rhs)
            assert ok == all(pc.passed for pc in details)
            assert ok == all(cond(v) for _, cond in conds)


def test_check_saturated_known_verdicts():
    X = matrix_two_by_three_level()
    # all three reduced conditions hold with margin
    v = np.array([1.0, 1.0, 6.0, 1.0, 4.0, 10.0])
    ok, details = g.check_saturated(X, 1.0 / v, (0, 1, 3))
    assert ok
    assert all(pc.margin > 0 for pc in details)
    # first condition violated, the other two untouched
    v[2] = 4.9
    ok, details = g.check_saturated(X, 1.0 / v, (0, 1, 3))
    assert not ok
    assert [pc.passed for pc in details] == [False, True, True]


def test_check_saturated_agrees_with_verify(rng):
    # the cheap d x d test and the full per-point conditions must agree on
    # the induced allocation whenever every margin is decisive
    X = matrix_two_by_three_level()
    m, d = X.shape
    agreed = 0
    for _ in range(100):
        v = rng.uniform(0.2, 5.0, m)
        w = 1.0 / v
        ok, details = g.check_saturated(X, w, (0, 1, 3))
        if min(abs(pc.margin) / max(pc.lhs, pc.rhs) for pc in details) < 1e-4:
            continue
        p = np.zeros(m)
        p[[0, 1, 3]] = 1.0 / d
        assert g.verify_optimal(X, w, p).optimal == ok
        agreed += 1
    assert agreed > 80


def test_check_saturated_singular_supports():
    # constant +/-1 column pair makes rows 0..2 coplanar
    X = matrix_two_by_three_level()
    with pytest.raises(g.SingularSupport):
        g.check_saturated(X, np.ones(6), (0, 1, 2))
    # quadratic contrast equals the intercept on these four rows
    with pytest.raises(g.SingularSupport):
        g.check_saturated(matrix_2x3(), np.ones(6), (0, 2, 3, 5))


def test_check_saturated_validation():
    X = matrix_two_by_three_level()
    w = np.ones(6)
    with pytest.raises(g.DimensionMismatch):
        g.check_saturated(X, w, (0, 1))
    with pytest.raises(g.DimensionMismatch):
        g.check_saturated(X, w, (0, 1, 1))
    with pytest.raises(g.DimensionMismatch):
        g.check_saturated(X, w, (0, 1, 6))
    with pytest.raises(g.DimensionMismatch):
        g.check_saturated(X, w[:5], (0, 1, 3))


@pytest.mark.parametrize("tol", [np.inf, 0.0, -1e-7, np.nan, True, "x", None])
def test_verify_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # p is far from optimal: tol = inf used to certify it all the same
    X, w, p = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones(3), [0.98, 0.01, 0.01]
    assert not g.verify_optimal(X, w, p).optimal
    with pytest.raises(g.DimensionMismatch, match="tol"):
        g.verify_optimal(X, w, p, tol=tol)
