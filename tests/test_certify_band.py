"""A positive mass does not excuse a leverage above d.

The positive-mass condition p_i |delta_i - d| / (1-p_i)^d <= tol scales
the leverage excess by the mass, so on its own it passes a point of tiny
mass whose leverage is far above d.  Every point must also stay within
the zero-mass band delta_i <= d + 2^d tol.
"""

import numpy as np

import glmdopt as g
from glmdopt.certify import DEFAULT_TOL, certified
from glmdopt.objective import information_inverse
from oracles import leverages


def test_tiny_mass_on_a_high_leverage_point_is_refuted():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.ones(3)
    p = np.array([0.5 - 5e-11, 0.5 - 5e-11, 1e-10])
    delta = leverages(X, w, information_inverse(X, w, p))
    assert np.allclose(delta, [2.0, 2.0, 4.0])
    cert = g.verify_optimal(X, w, p)
    assert not cert.optimal
    assert [pc.passed for pc in cert.per_point] == [True, True, False]
    assert cert.per_point[2].case == "positive-mass"
    assert cert.per_point[2].note == "leverage exceeds d"
    assert not certified(p, delta, 2)
    # the optimum puts 1/3 on each row and is about 13% more efficient
    assert g.relative_efficiency(X, w, p, np.full(3, 1.0 / 3.0)) < 0.87


def test_certified_designs_meet_the_leverage_band(rng):
    # the optimum on a subset of the rows, plus a tiny mass on the
    # outside row of largest leverage: certified only within the band
    refuted = 0
    for _ in range(100):
        m, d = int(rng.integers(5, 10)), int(rng.integers(2, 4))
        X = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, (m, d - 1))])
        w = rng.uniform(0.2, 2.0, m)
        k = m - 2
        p = np.zeros(m)
        p[:k] = g.lift_one_optimize(X[:k], w[:k]).p_opt
        delta = leverages(X, w, information_inverse(X, w, p))
        i = k + int(np.argmax(delta[k:]))
        p[i] = 10.0 ** rng.uniform(-11, -9)
        p /= p.sum()
        delta = leverages(X, w, information_inverse(X, w, p))
        cert = g.verify_optimal(X, w, p)
        band = delta.max() <= d + 2.0**d * DEFAULT_TOL
        assert cert.optimal == (certified(p, delta, d) and band)
        refuted += not band
    assert refuted > 20
