"""Lift-one's best-lift kernel against the closed-form oracle.

The random sweep takes one coordinate at a time on plain floats
(``_lift``), which must give the ``maximize_profile`` answer for the
profile that ``lift_coefficients`` builds, on either side of the
a > b d switch, where the clamp sets b = 0, and for d = 1.
"""

import itertools

import numpy as np
import pytest

import glmdopt as g
from glmdopt.liftone import _lift
from glmdopt.objective import lift_coefficients
from oracles import LiftProfile, maximize_profile

CASES = 3000


def oracle(pi, delta, d):
    a, b = lift_coefficients(pi, delta, d)
    return maximize_profile(LiftProfile(a=max(a, 0.0), b=float(b), d=d))


def random_points(rng, n):
    """(p_i, delta_i, d) with a <= b d, a > b d and 1 - p_i delta_i <= 0 all
    well represented; p_i = 0 and d = 1 included."""
    d = rng.integers(1, 9, n)
    p = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 1.0, n))
    switch = d / (1.0 - p + p * d)  # a > b d exactly when delta > switch
    delta = rng.uniform(0.0, 2.0, n) * switch
    clamp = (rng.random(n) < 0.2) & (p > 0.0)
    delta[clamp] = rng.uniform(1.0, 3.0, clamp.sum()) / p[clamp]
    return p, delta, d


def test_sample_covers_every_branch():
    p, delta, d = random_points(np.random.default_rng(1), CASES)
    a, b = lift_coefficients(p, delta, d)
    assert (a <= b * d).sum() > 300 and (a > b * d).sum() > 300
    assert (b == 0.0).sum() > 300 and (d == 1).sum() > 200


def test_scalar_kernel_equals_the_closed_form():
    p, delta, d = random_points(np.random.default_rng(2), CASES)
    for pi, di, k in zip(p.tolist(), delta.tolist(), d.tolist()):
        assert _lift(pi, di, k) == oracle(pi, di, k)


def test_best_lift_is_the_profile_maximum():
    p, delta, d = random_points(np.random.default_rng(4), 400)
    grid = np.linspace(0.0, 1.0, 2001)
    for pi, di, k in zip(p.tolist(), delta.tolist(), d.tolist()):
        a, b = lift_coefficients(pi, di, k)
        profile = LiftProfile(a=max(a, 0.0), b=float(b), d=k)
        z, ratio = _lift(pi, di, k)
        assert 0.0 <= z <= 1.0
        assert ratio == pytest.approx(profile.value(z), rel=1e-12)
        assert ratio >= max(profile.value(t) for t in grid) * (1.0 - 1e-12)


def test_all_mass_on_one_point_stays_put():
    # p_i = 1 is reachable only for d = 1, where it has no profile to lift
    assert _lift(1.0, 1.0, 1) == (1.0, 1.0)


def test_in_place_sweep_leaves_the_callers_arrays_alone():
    rng = np.random.default_rng(5)
    levels = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=3)))
    X = np.column_stack([np.ones(12), levels[rng.choice(len(levels), 12, replace=False)]])
    w = rng.uniform(0.1, 1.0, 12)
    p0 = rng.dirichlet(np.ones(12))
    before = (X.copy(), w.copy(), p0.copy())
    first = g.lift_one_optimize(X, w, p0=p0)
    for arr, kept in zip((X, w, p0), before):
        np.testing.assert_array_equal(arr, kept)
    assert first.p_opt is not p0
    np.testing.assert_array_equal(g.lift_one_optimize(X, w, p0=p0).p_opt, first.p_opt)
