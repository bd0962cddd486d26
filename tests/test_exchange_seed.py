"""``exchange_optimize`` takes a non-negative integer seed or a SeedSequence.

Anything else used to reach numpy: seed = -1 ended in a bare ValueError,
seed = 1.5 in a bare TypeError, and seed = True ran as seed 1.
"""

import numpy as np
import pytest

import glmdopt as g
from conftest import logit_2x3

N0 = [2, 2, 2, 2, 1, 1]


@pytest.fixture(scope="module")
def logit():
    X, _model, w = logit_2x3()
    return X, w


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, None, "3", np.random.default_rng(3)])
def test_exchange_rejects_other_seeds(logit, seed):
    X, w = logit
    with pytest.raises(g.DimensionMismatch, match="seed"):
        g.exchange_optimize(X, w, N0, seed=seed)


def test_exchange_takes_integers_and_seed_sequences(logit):
    X, w = logit
    n = g.exchange_optimize(X, w, N0, seed=3)
    np.testing.assert_array_equal(g.exchange_optimize(X, w, N0, seed=np.uint8(3)), n)
    np.testing.assert_array_equal(g.exchange_optimize(X, w, N0, seed=np.random.SeedSequence(3)), n)
    assert int(n.sum()) == sum(N0)


def test_optimize_exact_still_passes_its_seed_sequence_children(logit):
    X, w = logit
    n = g.optimize_exact(X, w, 10, seed=4, n_starts=3)
    assert int(n.sum()) == 10
