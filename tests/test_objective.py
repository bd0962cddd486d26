"""Objective f(p) = det(X' diag(p w) X), subset expansion, lift algebra."""

import math

import numpy as np
import pytest

import glmdopt as g
from conftest import logit_2x3, matrix_2x2, random_problem
from oracles import LiftProfile, TooManySubsets, lift_allocation, lift_profile, objective_expansion


def test_design_matrix_validation():
    with pytest.raises(g.DimensionMismatch):
        g.design_matrix(np.ones(4))
    with pytest.raises(g.DimensionMismatch):
        g.design_matrix(np.ones((2, 3)))  # m < d
    with pytest.raises(g.NonFiniteInput):
        g.design_matrix(np.array([[1.0, np.nan], [1.0, 0.0]]))
    X = g.design_matrix([[1, 0], [0, 1], [1, 1]])
    assert X.dtype == float and X.shape == (3, 2)


def test_design_matrix_warns_on_duplicate_rows():
    with pytest.warns(UserWarning, match="duplicate"):
        g.design_matrix([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_allocation_validation():
    p = g.allocation([0.25, 0.25, 0.5])
    assert p.sum() == pytest.approx(1.0, abs=0)
    with pytest.raises(g.DimensionMismatch):
        g.allocation([0.5, 0.5], m=3)
    with pytest.raises(g.DimensionMismatch):
        g.allocation([-0.1, 1.1])
    with pytest.raises(g.DimensionMismatch):
        g.allocation([0.3, 0.3])  # sums to 0.6, not a rounding slip
    # a sum off by float dust is renormalized, not rejected
    q = g.allocation([0.5, 0.5 + 4e-13])
    assert q.sum() == pytest.approx(1.0, abs=1e-15)


def test_integer_allocation_validation():
    n = g.integer_allocation([3, 0, 2])
    assert n.dtype.kind == "i" and n.sum() == 5
    with pytest.raises(g.DimensionMismatch):
        g.integer_allocation([1.5, 2.0])
    with pytest.raises(g.DimensionMismatch):
        g.integer_allocation([-1, 2])
    with pytest.raises(g.DimensionMismatch):
        g.integer_allocation([1, 2], total=4)


def test_objective_hand_value():
    # X = I2, w = (2, 3), p = (1/2, 1/2): det diag(1, 1.5) = 1.5
    X = np.eye(2)
    assert g.objective(X, [2.0, 3.0], [0.5, 0.5]) == pytest.approx(1.5, rel=1e-15)


def test_objective_clamps_singular_to_zero():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
    # support only on the two proportional rows: information matrix singular
    assert g.objective(X, [1.0, 1.0, 1.0], [0.5, 0.5, 0.0]) == 0.0


def test_objective_homogeneous_of_degree_d(rng):
    for _ in range(20):
        X, w = random_problem(rng)
        m, d = X.shape
        p = rng.dirichlet(np.ones(m))
        c = rng.uniform(0.5, 3.0)
        f1 = g.objective(X, w, p)
        fc = g.objective(X, w, c * p)
        assert fc == pytest.approx(c**d * f1, rel=1e-9)


def test_objective_matches_subset_expansion(rng):
    # determinant versus the sum over d-subsets of squared subdeterminants
    for _ in range(100):
        X, w = random_problem(rng, m_max=12, d_max=5)
        p = rng.dirichlet(np.ones(X.shape[0]))
        f = g.objective(X, w, p)
        fx = objective_expansion(X, w, p)
        assert fx == pytest.approx(f, rel=1e-9, abs=1e-300)


def test_objective_permutation_invariant(rng):
    X, w = random_problem(rng)
    m = X.shape[0]
    p = rng.dirichlet(np.ones(m))
    f = g.objective(X, w, p)
    perm = rng.permutation(m)
    assert g.objective(X[perm], w[perm], p[perm]) == pytest.approx(f, rel=1e-12)


def test_objective_expansion_subset_guard():
    X = np.column_stack([np.ones(40), np.arange(40.0)[:, None] ** np.arange(1, 8)])
    w = np.ones(40)
    p = np.full(40, 1 / 40)
    with pytest.raises(TooManySubsets):
        objective_expansion(X, w, p)  # C(40, 8) = 7.7e7 subsets


def test_lift_allocation_basic():
    p = np.array([0.2, 0.3, 0.5])
    q = lift_allocation(p, 0, 0.6)
    assert q[0] == 0.6
    assert q.sum() == pytest.approx(1.0, abs=1e-15)
    # remaining mass keeps the old proportions
    assert q[1] / q[2] == pytest.approx(0.3 / 0.5, rel=1e-12)
    # z = p_i returns the same allocation
    np.testing.assert_allclose(lift_allocation(p, 1, 0.3), p, rtol=1e-15)


def test_lift_allocation_edges():
    p = np.array([0.2, 0.3, 0.5])
    q = lift_allocation(p, 2, 0.0)
    assert q[2] == 0.0 and q.sum() == pytest.approx(1.0, abs=1e-15)
    # degenerate source point: with all mass on i there are no other
    # proportions to rescale, so the rest stays at zero
    q1 = lift_allocation(np.array([1.0, 0.0]), 0, 0.4)
    assert q1[0] == 0.4 and q1[1] == 0.0
    with pytest.raises(g.DimensionMismatch):
        lift_allocation(p, 0, 1.2)
    with pytest.raises(g.DimensionMismatch):
        lift_allocation(p, 5, 0.5)


def test_lift_profile_reconstructs_objective(rng):
    # f(lift(p, i, z)) must equal a z (1-z)^(d-1) + b (1-z)^d for all z
    for _ in range(50):
        X, w = random_problem(rng)
        m, d = X.shape
        p = rng.dirichlet(np.ones(m))
        i = int(rng.integers(m))
        prof = lift_profile(X, w, p, i)
        assert prof.d == d
        for z in rng.uniform(0.0, 0.999, 8):
            direct = g.objective(X, w, lift_allocation(p, i, z))
            poly = prof.a * z * (1 - z) ** (d - 1) + prof.b * (1 - z) ** d
            assert poly == pytest.approx(direct, rel=1e-9, abs=1e-300)


def test_lift_profile_endpoints(rng):
    X, w = random_problem(rng)
    m, d = X.shape
    p = rng.dirichlet(np.ones(m))
    for i in range(m):
        prof = lift_profile(X, w, p, i)
        f0 = g.objective(X, w, lift_allocation(p, i, 0.0))
        assert prof.b == pytest.approx(f0, rel=1e-9, abs=1e-300)
        assert prof.value(float(p[i])) == pytest.approx(
            g.objective(X, w, p), rel=1e-9
        )


def test_lift_profile_requires_positive_objective():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
    with pytest.raises(g.SingularDesign):
        lift_profile(X, np.ones(3), np.array([0.5, 0.5, 0.0]), 2)


def test_lift_profile_invariant_rejects_negative():
    with pytest.raises(g.SingularDesign):
        LiftProfile(a=-1.0, b=1.0, d=3)
    with pytest.raises(g.SingularDesign):
        LiftProfile(a=0.0, b=0.0, d=2)
    with pytest.raises(g.DimensionMismatch):
        LiftProfile(a=1.0, b=1.0, d=0)


def test_relative_efficiency():
    X, _, w = logit_2x3()
    p = np.full(6, 1 / 6)
    assert g.relative_efficiency(X, w, p, p) == pytest.approx(1.0, rel=1e-12)
    # matches the definition (f1/f2)^(1/d) on a hand-built pair
    q = np.array([0.3, 0.3, 0.1, 0.1, 0.1, 0.1])
    want = (g.objective(X, w, q) / g.objective(X, w, p)) ** (1 / 4)
    assert g.relative_efficiency(X, w, q, p) == pytest.approx(want, rel=1e-12)


def test_relative_efficiency_singular_reference():
    X = matrix_2x2()
    w = np.ones(4)
    with pytest.raises(g.SingularDesign):
        g.relative_efficiency(X, w, np.full(4, 0.25), np.array([1.0, 0, 0, 0]))
