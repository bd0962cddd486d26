"""``exchange_optimize`` scores pairs on plain floats.

The reference below is the pass loop written with the oracles: one
``PairProfile`` per pair from ``_scaled_pair_profile`` and its integer
maximum from ``maximize_pair``.  The optimizer must return the same
allocation, bit for bit, including on ties and on proportional rows.
"""

import itertools
import warnings

import numpy as np

import glmdopt as g
from glmdopt.exchange import _ACCEPT, _pair_leverages
from oracles import _scaled_pair_profile


def reference_exchange(X, w, n0, seed):
    n = np.array(n0)
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(len(n)), 2))
    G = _pair_leverages(X, w, n)
    for _ in range(10_000):
        changed = False
        for k in rng.permutation(len(pairs)):
            i, j = pairs[k]
            s = int(n[i] + n[j])
            if s == 0:
                continue
            prof = _scaled_pair_profile(G, n, i, j, s)
            if prof.A > 0:
                z, ratio = g.maximize_pair(prof, current=int(n[i]))
            else:
                z, ratio = max(((0, s * prof.C + prof.D), (s, s * prof.B + prof.D)),
                               key=lambda t: t[1])
            if z != n[i] and ratio > _ACCEPT:
                n[i], n[j] = z, s - z
                G = _pair_leverages(X, w, n)
                changed = True
        if not changed:
            return n
    raise AssertionError("reference exchange did not settle")


def random_exact_problem(rng, kind):
    d = int(rng.integers(1, 6))
    m = int(rng.integers(d, 16))
    if kind == 0:  # three-level settings: repeated rows, many ties
        X = np.column_stack([np.ones(m), rng.integers(-1, 2, (m, d - 1)).astype(float)])
        w = np.ones(m)
    elif kind == 1:  # proportional rows: affine pair profiles
        X = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, (m, d - 1))])
        X[m // 2:] = 2.0 * X[: m - m // 2]
        w = rng.uniform(0.1, 2.0, m)
    else:
        X = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, (m, d - 1))])
        w = rng.uniform(0.1, 2.0, m)
    n0 = g.round_allocation(rng.dirichlet(np.ones(m)), int(rng.integers(d, 50)))
    return X, w, n0


def test_exchange_matches_the_profile_oracle_loop():
    rng = np.random.default_rng(20131)
    compared = 0
    while compared < 300:
        X, w, n0 = random_exact_problem(rng, compared % 3)
        if np.linalg.matrix_rank(X[n0 > 0]) < X.shape[1]:
            continue
        seed = int(rng.integers(2**32))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # three-level draws repeat rows
            got = g.exchange_optimize(X, w, n0, seed=seed)
        want = reference_exchange(X, w, n0, seed)
        assert got.dtype == want.dtype and np.array_equal(got, want), (compared, got, want)
        compared += 1
