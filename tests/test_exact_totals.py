"""Exact totals are kept exactly, or refused.

Below 2**52 the floors of p * total, computed in doubles, sum into
[total - m, total], so largest-remainder rounding hands out the leftover
and lands on total.  From 2**52 on they can sum past it, so such totals
raise DimensionMismatch naming ``total``.
"""

import numpy as np
import pytest

import glmdopt as g
from conftest import logit_2x3
from glmdopt.exchange import MAX_TOTAL


def test_totals_just_below_the_bound_are_kept_exactly():
    rng = np.random.default_rng(52)
    for _ in range(10_000):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 30))))
        total = int(rng.integers(2**50, 2**52))
        n = g.round_allocation(p, total)
        assert (n >= 0).all() and int(n.sum()) == total, (p, total)


@pytest.mark.parametrize("total", [2**52, 2**60 + 12345, 10**30])
def test_totals_from_the_bound_on_are_refused(total):
    assert MAX_TOTAL == 2**52
    with pytest.raises(g.DimensionMismatch, match="total"):
        g.round_allocation(np.full(4, 0.25), total)
    X, _, w = logit_2x3()
    with pytest.raises(g.DimensionMismatch, match="total"):
        g.optimize_exact(X, w, total)
