"""The in-place weight kernel and the Monte Carlo block workspace.

``nu_array`` runs the in-place kernel on a copy of eta, so its argument
is never written.  Monte Carlo expected weights run the same kernel on
one fixed workspace per stream, a block of ``_MC_BLOCK`` values of eta
plus its scratch arrays, so the estimate stays bit-identical across
worker counts when a stream spans several blocks, and the block loop
allocates no eta-sized temporaries.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import glmdopt as g
from glmdopt import ew as ew_module
from glmdopt.weights import FAMILY_LINKS, nu_array

PARAMS = {"gamma-inverse": {"shape": 2.0}, "normal-identity": {"variance": 0.5}}
ETA = np.array([-40.0, -7.0, -0.3665, -1e-3, 0.25, 0.6931471805599453, 3.0, 6.7, 38.9])


def factorial_2_7():
    """The 2^7 main-effects factorial with an intercept: m = 128, d = 8."""
    levels = np.array(list(itertools.product([-1.0, 1.0], repeat=7)))
    return np.column_stack([np.ones(len(levels)), levels])


def mc(family, samples, workers, monkeypatch):
    monkeypatch.setattr(ew_module, "_cpu_count", lambda: workers)
    X = factorial_2_7()
    prior = [g.UniformPrior(-0.5, 0.5)] * X.shape[1]
    return g.expected_weights(X, family, prior, method="monte-carlo", samples=samples, seed=5)


@pytest.mark.parametrize("family", FAMILY_LINKS)
def test_nu_array_leaves_its_argument_unchanged(family):
    kw = PARAMS.get(family, {})
    eta = ETA.copy()
    w = nu_array(family, eta, **kw)
    assert eta.tobytes() == ETA.tobytes()
    assert not np.shares_memory(w, eta)
    for i, x in enumerate(ETA):
        zero_d = np.array(x)
        assert float(nu_array(family, zero_d, **kw)) == w[i]
        assert float(zero_d) == x
        scalar = float(x)
        assert float(nu_array(family, scalar, **kw)) == w[i]
        assert scalar == x


@pytest.mark.parametrize("family", ["binary-logit", "binary-probit", "binary-cloglog"])
def test_workers_agree_when_streams_span_several_blocks(family, monkeypatch):
    samples = 32 * 1000 + 7
    # about 1000 draws per stream, 384 per block at m = 128: the last block is partial
    assert samples // 32 > 2 * (ew_module._MC_BLOCK // 128)
    one = mc(family, samples, 1, monkeypatch)
    four = mc(family, samples, 4, monkeypatch)
    assert one.tobytes() == four.tobytes()


def test_block_loop_allocates_no_eta_sized_temporaries(monkeypatch):
    samples = 32 * 4096
    X = factorial_2_7()
    m, d = X.shape
    draws = d * (samples // 32) * 8
    # the workspace holds eta and up to three scratch arrays of one block
    workspace = 4 * ew_module._MC_BLOCK * 8
    bound = draws + workspace + 2**20
    mc("binary-cloglog", 32, 1, monkeypatch)  # the first call imports the thread pool
    tracemalloc.start()
    try:
        mc("binary-cloglog", samples, 1, monkeypatch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a single (m x 4096) temporary of eta is 4 MB
    assert peak < bound < m * 4096 * 8
