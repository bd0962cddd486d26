"""The vectorised poisson-log closed form against the scalar product.

The reference is the product over coefficients of the univariate moment
generating functions, one row and one component at a time with ``math``;
the vectorised form multiplies the same factors in the same order, so
only exp/expm1 rounding may differ (a few ulps per factor).
"""

import math

import numpy as np
import pytest

import glmdopt as g
from glmdopt.errors import NonFiniteInput


def scalar_mgf(comp, x):
    if isinstance(comp, g.PointPrior):
        return math.exp(comp.value * x)
    if x == 0.0:
        return 1.0
    t = (comp.hi - comp.lo) * x
    return math.exp(comp.lo * x) * math.expm1(t) / t


def test_matches_scalar_loop_on_random_designs():
    rng = np.random.default_rng(21)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        X = np.unique(rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], (d + 6, d)), axis=0)
        if len(X) < d:
            continue
        prior = [
            g.PointPrior(float(rng.normal())) if rng.random() < 0.3
            else g.UniformPrior(lo := float(rng.normal()), lo + float(rng.uniform(0.01, 2.0)))
            for _ in range(d)
        ]
        expected = np.array([math.prod(scalar_mgf(c, x) for c, x in zip(prior, row)) for row in X])
        got = g.expected_weights(X, "poisson-log", prior)
        np.testing.assert_allclose(got, expected, rtol=8 * d * np.finfo(float).eps, atol=0.0)


def test_zero_column_entry_and_point_prior_are_exact():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    prior = (g.PointPrior(0.25), g.UniformPrior(-1.0, 1.0))
    got = g.expected_weights(X, "poisson-log", prior)
    assert got[0] == math.exp(0.25)
    assert got[1] == pytest.approx(math.exp(0.25) * math.sinh(1.0), rel=1e-15)


def test_overflow_is_reported_as_non_finite():
    X = np.array([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(NonFiniteInput):
        g.expected_weights(X, "poisson-log", (g.UniformPrior(0.0, 800.0), g.PointPrior(0.0)))
