"""The duplicate-row warning names the caller's line, not glmdopt's.

``design_matrix`` runs under every entry point, so the warning it raises
must skip every frame inside the package; otherwise each entry point
reports the slip from a different line of glmdopt's own source.
"""

import warnings

import numpy as np
import pytest

import glmdopt as g

X_DUP = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
W = np.array([0.2, 0.2, 0.25])


def warning_files(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [w.filename for w in caught if "duplicate rows" in str(w.message)]


@pytest.mark.parametrize("call", [
    lambda: g.design_matrix(X_DUP),
    lambda: g.compute_weights(X_DUP, g.GlmModel("binary-logit", np.array([0.1, 0.2]))),
    lambda: g.lift_one_optimize(X_DUP, W),
    lambda: g.verify_optimal(X_DUP, W, np.full(3, 1.0 / 3.0)),
    lambda: g.exchange_optimize(X_DUP, W, np.array([2, 2, 2])),
    lambda: g.expected_weights(X_DUP, "poisson-log", (g.PointPrior(0.1), g.UniformPrior(0.0, 1.0))),
], ids=["design_matrix", "compute_weights", "lift_one_optimize", "verify_optimal",
        "exchange_optimize", "expected_weights"])
def test_duplicate_row_warning_points_at_the_caller(call):
    files = warning_files(call)
    assert files, "no duplicate-row warning"
    assert set(files) == {__file__}
