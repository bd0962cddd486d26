"""Metamorphic property: the saturated-design test and the general
certificate give the same verdict on the same design.

``check_saturated(X, w, I)`` decides the design with mass 1/d on the d
rows I from one d x d solve; ``verify_optimal`` decides the same
allocation from the leverages.  Row i outside I passes the saturated
test when lhs_i <= rhs_i, and the certificate when
delta_i = d * lhs_i / rhs_i <= d + 2^d * tol, so the two can only
disagree when d * |margin_i| / rhs_i lies inside the certificate's
tolerance band.  Such draws are skipped and counted.
"""

import itertools

import numpy as np

import glmdopt as g

CASES = 400
FAMILIES = ("binary-logit", "binary-probit", "poisson-log")


def random_problem(rng):
    """A random {-1,0,1} design with an intercept column, distinct rows,
    GLM weights at a random beta, and a spanning saturated support."""
    d = int(rng.integers(2, 6))
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=d - 1)))
    m = int(rng.integers(d + 1, min(len(grid), 3 * d) + 1))
    X = np.ones((m, d))
    while np.linalg.matrix_rank(X) < d:
        X = np.column_stack([np.ones(m), grid[rng.choice(len(grid), size=m, replace=False)]])
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    beta = rng.uniform(-1.0, 1.0, d)
    w = g.compute_weights(X, g.GlmModel(family, beta))
    while True:
        support = np.sort(rng.choice(m, size=d, replace=False))
        if np.linalg.matrix_rank(X[support]) == d:
            return X, w, support


def test_check_saturated_agrees_with_verify_optimal(capsys):
    rng = np.random.default_rng(2013)
    tol = g.DEFAULT_TOL
    counts = {True: 0, False: 0}
    skipped = 0
    for _ in range(CASES):
        X, w, support = random_problem(rng)
        d = X.shape[1]
        verdict, points = g.check_saturated(X, w, support)
        # twice the band, so rounding in either test cannot flip a verdict
        band = 2.0 * 2.0**d * tol
        if min(d * abs(pt.margin) / pt.rhs for pt in points) <= band:
            skipped += 1
            continue
        p = np.zeros(len(X))
        p[support] = 1.0 / d
        cert = g.verify_optimal(X, w, p, tol=tol)
        assert cert.optimal == verdict
        for pt in points:
            assert cert.per_point[pt.index].passed == pt.passed
        for i in support:
            assert cert.per_point[i].passed
        counts[verdict] += 1
    with capsys.disabled():
        print(
            f"\nsaturated agreement: {counts[True]} optimal, {counts[False]} not, "
            f"{skipped} of {CASES} skipped inside the tolerance band",
            flush=True,
        )
    # both verdicts are exercised, and skips stay rare
    assert counts[True] >= 20 and counts[False] >= 20
    assert skipped <= CASES // 20

