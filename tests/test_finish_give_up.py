"""The Newton finish gives up without harm.

When no direction raises log f, ``_finish`` returns its p uncertified and
the sweep goes on from its own p; ``_ascend`` returns None for a step
along which no alpha above rounding raises log f.
"""

import itertools

import numpy as np

import glmdopt as g
from glmdopt import liftone
from glmdopt.objective import whitened


def logit_2_5():
    X = np.column_stack([np.ones(32), np.array(list(itertools.product([-1.0, 1.0], repeat=5)))])
    beta = np.random.default_rng(5).uniform(-3.0, 3.0, 6)
    return X, g.compute_weights(X, g.GlmModel("binary-logit", beta))


def test_sweep_goes_on_after_a_finish_that_finds_no_direction(monkeypatch):
    X, w = logit_2_5()
    plain = g.lift_one_optimize(X, w)
    directions, calls = liftone._directions, []

    def none_at_first(*args):
        calls.append(args)
        return iter(()) if len(calls) == 1 else directions(*args)

    monkeypatch.setattr(liftone, "_directions", none_at_first)
    res = g.lift_one_optimize(X, w)
    assert len(calls) > 1  # the round-2 try gave up and a later one ran
    assert res.converged and res.certificate.optimal
    assert res.rounds == 4
    np.testing.assert_allclose(res.p_opt, plain.p_opt, rtol=0.0, atol=1e-9)


def test_ascend_gives_up_on_a_zero_step():
    X, w = logit_2_5()
    p = np.full(32, 1.0 / 32)
    S = np.arange(32)
    Y = whitened(X, w, p).T
    zero = np.zeros(32)
    assert liftone._ascend(p, S, zero, np.inf, Y) is None  # no ratio-test limit to reach
    assert liftone._ascend(p, S, zero, 1.0, Y) is None  # every halving leaves log f where it is
