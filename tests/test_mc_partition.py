"""Monte Carlo expected weights do not depend on how the work is split.

The draw is 32 fixed sub-streams spawned from the seed; each stream is
summed on its own, in blocks, and the stream sums are added in
stream order.  So the estimate must be bit-identical whether the streams
run on one worker or on more workers than there are cores, and, with
fewer draws than streams, equal to the plain mean over the drawn
coefficients up to rounding.  The thread pool is imported only by the Monte Carlo
branch, so a bare ``import glmdopt`` leaves ``concurrent.futures`` out.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glmdopt as g
from conftest import matrix_2x3_dummy, uniform_box_prior
from glmdopt import ew as ew_module
from glmdopt.weights import nu_array

ROOT = Path(__file__).resolve().parents[1]

FAMILIES = ["binary-logit", "binary-probit", "binary-cloglog", "binary-loglog", "poisson-log"]


def mc(family, samples, workers, monkeypatch, seed=7):
    monkeypatch.setattr(ew_module, "_cpu_count", lambda: workers)
    return g.expected_weights(
        matrix_2x3_dummy(), family, uniform_box_prior(),
        method="monte-carlo", samples=samples, seed=seed,
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_one_worker_and_four_workers_agree_bit_for_bit(family, monkeypatch):
    # 4375 draws per stream, in one block at m = 6 (test_mc_workspace.py spans several)
    samples = 32 * 4375 + 5
    one = mc(family, samples, 1, monkeypatch)
    four = mc(family, samples, 4, monkeypatch)
    assert one.tobytes() == four.tobytes()


def test_many_workers_with_fast_thread_switching(monkeypatch):
    one = mc("binary-cloglog", 50_000, 1, monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        eight = mc("binary-cloglog", 50_000, 8, monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert one.tobytes() == eight.tobytes()


@pytest.mark.parametrize("samples", [1, 5, 31])
def test_fewer_draws_than_streams(samples, monkeypatch):
    X, prior = matrix_2x3_dummy(), uniform_box_prior()
    # one draw from each of the first `samples` streams, summed in order
    acc = np.zeros(len(X))
    for child in np.random.SeedSequence(11).spawn(32)[:samples]:
        rng = np.random.default_rng(child)
        beta = np.array([rng.uniform(c.lo, c.hi, 1)[0] for c in prior])
        acc += nu_array("binary-logit", X @ beta)
    expected = acc / float(samples)
    one = mc("binary-logit", samples, 1, monkeypatch, seed=11)
    four = mc("binary-logit", samples, 4, monkeypatch, seed=11)
    assert one.tobytes() == four.tobytes()
    np.testing.assert_allclose(one, expected, rtol=1e-15, atol=0.0)


def test_import_glmdopt_leaves_the_thread_pool_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, glmdopt; print('concurrent.futures' in sys.modules, 'scipy' in sys.modules)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
