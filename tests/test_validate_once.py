"""Each public call validates its inputs once.

Optimizers call other public entry points (lift-one certifies its
answer; ``optimize_exact`` runs lift-one and several exchange starts).
Those nested calls take the arrays the outer call validated, so a
duplicate-row design warns once per public call, not once per layer.
"""

import warnings

import numpy as np
import pytest

import glmdopt as g

X_DUP = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
W = np.array([0.2, 0.2, 0.25])


def duplicate_warnings(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [w for w in caught if "duplicate rows" in str(w.message)]


@pytest.mark.parametrize("call", [
    lambda: g.lift_one_optimize(X_DUP, W),
    lambda: g.ew_optimize(X_DUP, W),
    lambda: g.optimize_exact(X_DUP, W, 6),
    lambda: g.verify_optimal(X_DUP, W, np.full(3, 1.0 / 3.0)),
    lambda: g.exchange_optimize(X_DUP, W, np.array([2, 2, 2])),
    lambda: g.check_saturated(X_DUP, W, [0, 2]),
    lambda: g.relative_efficiency(X_DUP, W, np.full(3, 1.0 / 3.0), [0.25, 0.25, 0.5]),
], ids=["lift_one_optimize", "ew_optimize", "optimize_exact", "verify_optimal",
        "exchange_optimize", "check_saturated", "relative_efficiency"])
def test_one_warning_per_public_call(call):
    caught = duplicate_warnings(call)
    assert len(caught) == 1
    assert caught[0].filename == __file__


X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_validation_resumes_after_a_nested_call():
    g.optimize_exact(X, np.ones(3), 6)
    with pytest.raises(g.NonPositiveWeight):
        g.verify_optimal(X, [0.2, 0.0, 0.25], np.full(3, 1.0 / 3.0))
    assert len(duplicate_warnings(lambda: g.lift_one_optimize(X_DUP, W))) == 1


def test_validation_resumes_after_a_nested_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise g.DesignError("nested failure")

    monkeypatch.setattr(g.exchange, "exchange_optimize", fail)
    with pytest.raises(g.DesignError, match="nested failure"):
        g.optimize_exact(X, np.ones(3), 6)
    with pytest.raises(g.NonFiniteInput):
        g.lift_one_optimize(X, [1.0, np.nan, 1.0])


def test_exact_designs_still_reject_a_rank_deficient_matrix():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(g.SingularDesign):
        g.optimize_exact(X, np.ones(3), 6)
