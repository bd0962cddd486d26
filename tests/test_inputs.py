"""Input validation shared by every entry point, the spanning exact start,
and the types check_saturated returns."""

import itertools

import numpy as np
import pytest

import glmdopt as g
from conftest import matrix_2x2, matrix_two_by_three_level

UNIFORM4 = np.full(4, 0.25)

# Every public entry point that takes a weight vector, on the 2x2 factorial.
ENTRY_POINTS = {
    "lift_one_optimize": lambda X, w: g.lift_one_optimize(X, w),
    "ew_optimize": lambda X, w: g.ew_optimize(X, w),
    "verify_optimal": lambda X, w: g.verify_optimal(X, w, UNIFORM4),
    "check_saturated": lambda X, w: g.check_saturated(X, w, (0, 1, 2)),
    "exchange_optimize": lambda X, w: g.exchange_optimize(X, w, np.full(4, 3)),
    "optimize_exact": lambda X, w: g.optimize_exact(X, w, 12),
    "relative_efficiency": lambda X, w: g.relative_efficiency(X, w, UNIFORM4, UNIFORM4),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad, error",
    [
        (np.nan, g.NonFiniteInput),
        (np.inf, g.NonFiniteInput),
        (-np.inf, g.NonFiniteInput),
        (0.0, g.NonPositiveWeight),
        (-1.0, g.NonPositiveWeight),
    ],
)
def test_entry_points_reject_unusable_weights(entry, bad, error):
    w = np.array([1.0, 2.0, 0.5, 1.5])
    w[3] = bad
    with pytest.raises(error) as exc:
        ENTRY_POINTS[entry](matrix_2x2(), w)
    if error is g.NonPositiveWeight:
        assert exc.value.index == 3


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_wrong_weight_count(entry):
    with pytest.raises(g.DimensionMismatch):
        ENTRY_POINTS[entry](matrix_2x2(), np.ones(3))


def factorial_3_with_x1x2():
    """Logit 2^3 main effects plus the x1*x2 interaction (m = 8, d = 5)."""
    return np.array(
        [[1.0, x1, x2, x3, x1 * x2] for x1, x2, x3 in itertools.product([1.0, -1.0], repeat=3)]
    )


@pytest.mark.parametrize("total", [5, 6])
def test_optimize_exact_seats_a_spanning_start(total):
    # rounding p* to so few units drops a row the support needs; the start
    # must still span R^5 (total = d leaves no units to round after seating)
    X = factorial_3_with_x1x2()
    beta = np.random.default_rng(24).uniform(-1.0, 1.0, 5)
    w = g.compute_weights(X, g.GlmModel("binary-logit", beta))
    p_star = g.lift_one_optimize(X, w).p_opt
    assert np.linalg.matrix_rank(X[g.round_allocation(p_star, total) > 0]) < 5
    n = g.optimize_exact(X, w, total)
    assert int(n.sum()) == total
    assert np.all(n >= 0)
    assert np.linalg.matrix_rank(X[n > 0]) == 5


def test_check_saturated_returns_python_scalars():
    X = matrix_two_by_three_level()
    w = 1.0 / np.array([1.0, 1.0, 6.0, 1.0, 4.0, 10.0])
    ok, details = g.check_saturated(X, w, (0, 1, 3))
    assert type(ok) is bool
    for pc in details:
        assert type(pc.index) is int
        assert all(type(v) is float for v in (pc.lhs, pc.rhs, pc.margin))
        assert type(pc.passed) is bool


def test_check_saturated_sides_match_the_determinant_definition(rng):
    # lhs = sum_j det(X[{i} u I \ {j}])^2 / w_j and rhs = det(X[I])^2 / w_i,
    # evaluated here one determinant at a time
    for _ in range(20):
        m, d = 7, 3
        X = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, (m, d - 1))])
        w = rng.uniform(0.2, 5.0, m)
        support = sorted(rng.choice(m, d, replace=False).tolist())
        ok, details = g.check_saturated(X, w, support)
        det_I = np.linalg.det(X[support])
        rest = [i for i in range(m) if i not in support]
        assert [pc.index for pc in details] == rest
        for pc in details:
            lhs = sum(
                np.linalg.det(X[support[:k] + [pc.index] + support[k + 1:]]) ** 2 / w[j]
                for k, j in enumerate(support)
            )
            assert pc.lhs == pytest.approx(lhs, rel=1e-9)
            assert pc.rhs == pytest.approx(det_I**2 / w[pc.index], rel=1e-12)
