"""Metamorphic property: no exact design beats the approximate optimum.

An exact design n with total N is the approximate design n/N, so
f(n/N) <= f(p_opt).  The check does not trust lift-one's answer p* to
be optimal: the Atwood (1969) bound d / max_i delta_i(p*) on the
D-efficiency of p* gives

    log f(n/N) <= log f(p*) + d log(max_i delta_i(p*) / d)

for every design, certified or not.  Checked on ``optimize_exact``'s
answers and on random integer allocations over random designs and
families.
"""

import itertools

import numpy as np

import glmdopt as g
from glmdopt.objective import information_inverse, leverages, log_objective

CASES = 60
FAMILIES = ("binary-logit", "binary-probit", "binary-cloglog", "binary-loglog", "poisson-log")
SLACK = 1e-9  # log f is accurate to a few ulps of its size


def random_problem(rng):
    """A random {-1,0,1} design with an intercept column, distinct rows and
    full column rank, with GLM weights at a random beta."""
    d = int(rng.integers(2, 6))
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=d - 1)))
    m = int(rng.integers(d + 1, min(len(grid), 4 * d) + 1))
    X = np.ones((m, d))
    while np.linalg.matrix_rank(X) < d:
        X = np.column_stack([np.ones(m), grid[rng.choice(len(grid), size=m, replace=False)]])
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    w = g.compute_weights(X, g.GlmModel(family, rng.uniform(-1.5, 1.5, d)))
    return X, w


def log_bound(X, w, p):
    """log f(p) + d log(max_i delta_i(p) / d): the largest log f any design can reach."""
    d = X.shape[1]
    delta = leverages(X, w, information_inverse(X, w, p))
    return log_objective(X, w, p) + d * np.log(delta.max() / d)


def test_exact_designs_never_beat_the_approximate_optimum():
    rng = np.random.default_rng(20130)
    for case in range(CASES):
        X, w = random_problem(rng)
        m, d = X.shape
        p_star = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=case)).p_opt
        bound = log_bound(X, w, p_star)
        total = int(rng.integers(d, 5 * m))
        designs = [g.optimize_exact(X, w, total, seed=case, n_starts=2)]
        designs += [rng.multinomial(total, np.full(m, 1.0 / m)) for _ in range(5)]
        for n in designs:
            if g.objective(X, w, n) > 0.0:
                assert log_objective(X, w, n / total) <= bound + SLACK * abs(bound), (case, n)


def test_the_bound_is_tight_at_lift_ones_optimum():
    # so that the property above is not vacuous
    rng = np.random.default_rng(7)
    for case in range(20):
        X, w = random_problem(rng)
        res = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=case))
        assert res.converged
        gap = log_bound(X, w, res.p_opt) - log_objective(X, w, res.p_opt)
        assert -1e-12 <= gap <= 1e-5
