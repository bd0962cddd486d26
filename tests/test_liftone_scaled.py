"""Lift-one's bookkeeping against the textbook forms it replaces.

The sweep keeps p = s q and M(p)^-1 = t H, so an accepted lift writes one
mass and one rank-one update; one round of it must give the allocation
of the loop that rescales all of p and M(p)^-1 at every lift.  The Newton
model step centres K by its row means; it must give the step and flat
direction of the eigendecomposition of P K P with P = I - 11'/n.
"""

import itertools

import numpy as np
import pytest

import glmdopt as g
from glmdopt.liftone import _FLAT, _lift, _model_step
from glmdopt.objective import information_inverse


def textbook_model_step(mass, grad, K, out):
    keep = ~out
    n = int(keep.sum())
    shift = mass[out].sum() / n
    Kk = K[np.ix_(keep, keep)]
    rhs = grad[keep] + K[np.ix_(keep, out)] @ mass[out] - shift * Kk.sum(axis=1)
    P = np.eye(n) - 1.0 / n
    e, V = np.linalg.eigh(P @ Kk @ P)
    c = V.T @ (rhs - rhs.mean())
    curved = e > _FLAT * Kk.diagonal().max()
    step, flat = -mass.copy(), np.zeros(mass.size)
    step[keep] = shift + V[:, curved] @ (c[curved] / e[curved])
    flat[keep] = V[:, ~curved] @ c[~curved]
    return step, flat


@pytest.mark.parametrize("flat_directions", [False, True])
def test_centred_model_step_matches_the_projected_one(rng, flat_directions):
    for _ in range(300):
        n = int(rng.integers(2, 40))
        r = int(rng.integers(1, n)) if flat_directions else int(rng.integers(n, n + 20))
        Z = rng.normal(size=(n, r))
        mass = np.where(rng.random(n) < 0.3, 0.0, rng.dirichlet(np.ones(n)))
        grad = rng.uniform(0.0, 3.0, n)
        out = rng.random(n) < rng.choice([0.0, 0.2, 0.5])
        out[int(rng.integers(n))] = False
        step, flat = _model_step(mass, grad, Z @ Z.T, out)
        want_step, want_flat = textbook_model_step(mass, grad, Z @ Z.T, out)
        scale = max(np.linalg.norm(want_step), np.linalg.norm(want_flat))
        assert np.linalg.norm(step - want_step) <= 1e-9 * scale
        assert np.linalg.norm(flat - want_flat) <= 1e-9 * scale


def rescaling_round(X, w, seed, tol=1e-10):
    """One sweep from the uniform allocation that rescales p and M(p)^-1 at
    every accepted lift."""
    m, d = X.shape
    p = np.full(m, 1.0 / m)
    M_inv = information_inverse(X, w, p)
    for i in np.random.default_rng(seed).permutation(m):
        v = M_inv @ X[i]
        pi, delta = p[i], w[i] * float(X[i] @ v)
        z, ratio = _lift(pi, delta, d)
        if ratio > 1.0 + tol:
            c = (1.0 - z) / (1.0 - pi)
            p *= c
            p[i] = z
            p /= p.sum()
            p[i] = z
            gain = z / c - pi
            M_inv = (M_inv - gain * w[i] / (1.0 + gain * delta) * np.outer(v, v)) / c
    return p


def logit_2_7():
    levels = np.array(list(itertools.product((-1.0, 1.0), repeat=7)))
    X = np.column_stack([np.ones(128), levels])
    beta = np.random.default_rng(11).uniform(-3.0, 3.0, 8)
    return X, g.compute_weights(X, g.GlmModel("binary-logit", beta))


def logit_line():
    X = np.column_stack([np.ones(4096), np.random.default_rng(4096).uniform(-1.0, 1.0, 4096)])
    return X, g.compute_weights(X, g.GlmModel("binary-logit", np.array([0.5, 3.0])))


@pytest.mark.parametrize("problem", [logit_2_7, logit_line])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_scaled_round_matches_the_rescaling_loop(problem, seed):
    X, w = problem()
    res = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=seed, max_rounds=1))
    assert res.rounds == 1 and res.polish_steps == 0
    want = rescaling_round(X, w, seed)
    assert np.abs(res.p_opt - want).max() <= 1e-13
    assert np.array_equal(res.p_opt == 0.0, want == 0.0)
    assert (want == 0.0).any() and (want > 0.0).any()
