"""``exchange_optimize`` on passes longer than one block of 2048 pairs.

``tests/test_exchange_reference.py`` draws m < 16, so every pass fits in
one block.  Here C(m, 2) > 2048: a pass spans several blocks, moves are
accepted after the first block, and pairs that hold no units sit on both
sides of a block boundary.  The optimizer must still return the
allocation of ``reference_exchange``, the pair-by-pair loop built from
the oracles, bit for bit.
"""

import itertools
import math

import numpy as np
import pytest

import glmdopt as g
from glmdopt.exchange import _ACCEPT, _exact_start, _pair_leverages
from oracles import _scaled_pair_profile
from test_exchange_reference import reference_exchange

BLOCK = 2048


def factorial(levels):
    """Intercept plus main effects; a three-level factor gets a linear and a quadratic column."""
    cols = []
    for row in itertools.product(*[range(k) for k in levels]):
        x = [1.0]
        for k, v in zip(levels, row):
            x += [2.0 * v - 1.0] if k == 2 else [v - 1.0, 3.0 * (v - 1.0) ** 2 - 2.0]
        cols.append(x)
    return np.array(cols)


def lift_one_start(X, w, total):
    return _exact_start(X, g.lift_one_optimize(X, w).p_opt, total)


def first_accepted_position(X, w, n, order, rows, cols):
    """Where the pair-by-pair loop makes its first move in a pass with this order."""
    G = _pair_leverages(X, w, n)
    for pos, k in enumerate(order):
        i, j = int(rows[k]), int(cols[k])
        s = int(n[i] + n[j])
        if s == 0:
            continue
        prof = _scaled_pair_profile(G, n, i, j, s)
        if prof.A > 0:
            z, ratio = g.maximize_pair(prof, current=int(n[i]))
        else:
            z, ratio = max(((0, s * prof.C + prof.D), (s, s * prof.B + prof.D)), key=lambda t: t[1])
        if z != n[i] and ratio > _ACCEPT:
            return pos
    return None


def logit_2_7():
    X = factorial([2] * 7)
    return X, g.compute_weights(X, g.GlmModel("binary-logit", np.random.default_rng(11).uniform(-3, 3, 8)))


def problems():
    """(label, X, w, n0, seed) with m from 72 to 128."""
    X72 = factorial([3, 3, 2, 2, 2])
    w72 = g.compute_weights(X72, g.GlmModel("binary-logit", np.random.default_rng(72).uniform(-1, 1, 8)))
    X128, w128 = logit_2_7()
    rng = np.random.default_rng(96)
    X96 = np.column_stack([np.ones(96), rng.uniform(-1.0, 1.0, (96, 4))])
    w96 = rng.uniform(0.1, 2.0, 96)
    n96 = g.round_allocation(rng.dirichlet(np.full(96, 0.2)), 300)
    # near-proportional rows and nearly collinear columns: M(n) has a condition number near 1e9
    X112 = np.column_stack([np.ones(112), rng.uniform(-1.0, 1.0, (112, 3))])
    X112[:, 3] = X112[:, 2] + 1e-4 * rng.standard_normal(112)
    X112[56:] = 3.0 * X112[:56]
    w112 = np.exp(rng.uniform(-8.0, 2.0, 112))
    n112 = g.round_allocation(rng.dirichlet(np.full(112, 0.2)), 400)
    return [
        ("3x3x2x2x2 logit", X72, w72, lift_one_start(X72, w72, 500), 7),
        ("2^7 logit", X128, w128, lift_one_start(X128, w128, 1000), 11),
        ("random 96 x 5", X96, w96, n96, 5),
        ("ill-conditioned 112 x 4", X112, w112, n112, 3),
    ]


@pytest.mark.parametrize("label, X, w, n0, seed", [pytest.param(*p, id=p[0]) for p in problems()])
def test_multi_block_passes_match_reference(label, X, w, n0, seed):
    m = len(X)
    assert math.comb(m, 2) > BLOCK
    rows, cols = np.triu_indices(m, 1)
    order = np.random.default_rng(seed).permutation(len(rows))  # the first pass's order
    empty = (n0[rows] + n0[cols] == 0)[order]
    assert empty[:BLOCK].any() and empty[BLOCK:2 * BLOCK].any(), label
    got = g.exchange_optimize(X, w, n0, seed=seed)
    np.testing.assert_array_equal(got, reference_exchange(X, w, n0, seed))
    assert not np.array_equal(got, n0), label


def test_move_in_a_later_block_matches_reference():
    # one unit moved between two points of a settled 2^7 design: 19 of the
    # 8128 pairs can move, and the first of them in the first pass's order
    # lies beyond the first block
    X, w = logit_2_7()
    settled = g.exchange_optimize(X, w, lift_one_start(X, w, 1000), seed=0)
    n0 = settled.copy()
    i, j = np.flatnonzero(settled)[[3, 5]]
    n0[i] -= 1
    n0[j] += 1
    rows, cols = np.triu_indices(len(X), 1)
    seed = 0
    order = np.random.default_rng(seed).permutation(len(rows))
    assert first_accepted_position(X, w, n0, order, rows, cols) >= BLOCK
    got = g.exchange_optimize(X, w, n0, seed=seed)
    np.testing.assert_array_equal(got, reference_exchange(X, w, n0, seed))
    assert not np.array_equal(got, n0)


def test_poisson_2_5_starts_match_reference():
    # exact_paper's poisson 2^5 case: every start optimize_exact runs at N = 1000
    X = factorial([2] * 5)
    w = g.compute_weights(X, g.GlmModel("poisson-log", np.r_[0.0, np.random.default_rng(3).uniform(-0.5, 0.5, 5)]))
    n0 = _exact_start(X, g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=0)).p_opt, 1000)
    for child in np.random.SeedSequence(0).spawn(5):
        np.testing.assert_array_equal(g.exchange_optimize(X, w, n0, seed=child),
                                      reference_exchange(X, w, n0, child))


def test_pass_cap_raises(monkeypatch):
    # the poisson 2^2 start of the acceptance suite moves once, then a second pass confirms
    X = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [1.0, -1.0, -1.0]])
    w = g.compute_weights(X, g.GlmModel("poisson-log", [5.5, -0.18, -0.22]))
    n0 = lift_one_start(X, w, 879)
    settled = g.exchange_optimize(X, w, n0, seed=0)
    assert not np.array_equal(settled, n0)
    monkeypatch.setattr(g.exchange, "_MAX_PASSES", 2)
    np.testing.assert_array_equal(g.exchange_optimize(X, w, n0, seed=0), settled)
    monkeypatch.setattr(g.exchange, "_MAX_PASSES", 1)
    with pytest.raises(g.DesignError, match="did not settle in 1 passes"):
        g.exchange_optimize(X, w, n0, seed=0)
