"""Lift-one certifies under default options.

The sweep alone used to reach ``max_rounds=1000`` on 11 of these 60 plain
factorials and on the logit 2^7 start of ``optimize_exact`` without ever
becoming stationary, so the Newton finish never ran; every second round
now tries it.  Each problem certifies at its first try, in round 2, in
far fewer Newton steps than the 833 one try once took on binary-probit
2^6 (slopes from seed 4) while its Newton steps were only rounding.
"""

import itertools

import numpy as np
import pytest

import glmdopt as g

FAMILIES = ("binary-logit", "poisson-log", "binary-probit")


def factorial(k):
    levels = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
    return np.column_stack([np.ones(2**k), levels])


def check(X, w, res):
    assert res.converged and res.certificate.optimal, (res.rounds, res.polish_steps)
    assert res.rounds <= 20 and res.polish_steps <= 100, (res.rounds, res.polish_steps)
    M = X.T @ (X * (res.p_opt * w)[:, None])
    delta = w * np.einsum("ij,ji->i", X, np.linalg.solve(M, X.T))
    assert delta.max() <= X.shape[1] * (1.0 + 1e-6)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("family", FAMILIES)
def test_main_effect_factorials_certify_under_defaults(k, family):
    X = factorial(k)
    for s in range(5):
        slopes = np.random.default_rng(s).uniform(-0.5, 0.5, k)
        w = g.compute_weights(X, g.GlmModel(family, np.r_[0.0, slopes]))
        check(X, w, g.lift_one_optimize(X, w))


def test_optimize_exact_start_on_logit_2_7_converges():
    X = factorial(7)
    beta = np.random.default_rng(11).uniform(-3.0, 3.0, 8)
    w = g.compute_weights(X, g.GlmModel("binary-logit", beta))
    check(X, w, g.lift_one_optimize(X, w))
