"""Counts passed to the library must be integers.

A float or a bool in place of a unit total, a restart count, a support
index, a round cap or a Monte Carlo draw count is rejected instead of
being truncated; numpy integers are counts like Python ints.
"""

import numpy as np
import pytest

import glmdopt as g
from conftest import logit_2x3, matrix_2x3_dummy, uniform_box_prior


@pytest.fixture(scope="module")
def logit():
    X, _model, w = logit_2x3()
    return X, w


@pytest.mark.parametrize("n_starts", [0, -1, 1.0, 2.5, True])
def test_optimize_exact_needs_a_positive_integer_number_of_starts(logit, n_starts):
    # n_starts = 0 used to return None: no start ever set the best design
    X, w = logit
    with pytest.raises(g.DimensionMismatch, match="n_starts"):
        g.optimize_exact(X, w, 10, n_starts=n_starts)


@pytest.mark.parametrize("total", [7.9, 10.0, True])
def test_optimize_exact_needs_an_integer_total(logit, total):
    X, w = logit
    with pytest.raises(g.DimensionMismatch, match="total"):
        g.optimize_exact(X, w, total)


def test_optimize_exact_takes_numpy_integers(logit):
    X, w = logit
    n = g.optimize_exact(X, w, np.int64(12), n_starts=np.int32(2))
    np.testing.assert_array_equal(n, g.optimize_exact(X, w, 12, n_starts=2))
    assert int(n.sum()) == 12


@pytest.mark.parametrize("total", [10.5, 10.0, True])
def test_round_allocation_needs_an_integer_total(total):
    with pytest.raises(g.DimensionMismatch, match="total"):
        g.round_allocation([0.4, 0.35, 0.25], total)
    assert g.round_allocation([0.4, 0.35, 0.25], np.int64(10)).sum() == 10


@pytest.mark.parametrize("support", [[0, 1.7, 2, 3], [0, 1, 2, 3.0], [0, True, 2, 3]])
def test_check_saturated_needs_integer_indices(logit, support):
    X, w = logit
    with pytest.raises(g.DimensionMismatch, match="integers"):
        g.check_saturated(X, w, support)


def test_check_saturated_takes_numpy_indices(logit):
    X, w = logit
    assert g.check_saturated(X, w, np.array([0, 1, 2, 3])) == g.check_saturated(X, w, [0, 1, 2, 3])


@pytest.mark.parametrize("max_rounds", [2.5, 3.0, True])
def test_max_rounds_must_be_an_integer(max_rounds):
    with pytest.raises(g.DimensionMismatch, match="max_rounds"):
        g.LiftOneOptions(max_rounds=max_rounds)
    assert g.LiftOneOptions(max_rounds=np.int64(3)).max_rounds == 3


def monte_carlo(samples):
    return g.expected_weights(matrix_2x3_dummy(), "binary-logit", uniform_box_prior(),
                              method="monte-carlo", samples=samples, seed=1)


@pytest.mark.parametrize("samples", [2.5, 2.0, True])
def test_monte_carlo_draw_count_must_be_an_integer(samples):
    # samples = 2.5 used to draw 2 and divide by 2.5: every weight 20% low
    with pytest.raises(g.ConfigError, match="samples"):
        monte_carlo(samples)


def test_monte_carlo_takes_a_numpy_draw_count():
    np.testing.assert_array_equal(monte_carlo(np.int64(2)), monte_carlo(2))
