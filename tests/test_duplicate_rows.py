"""The duplicate-row check sorts rows with ``np.lexsort``.

``np.unique(X, axis=0)`` gave the same verdict but imports ``numpy.ma``,
about 16 ms of every cold CLI call; the lexsort check compares
neighbouring rows of the sorted matrix, with -0.0 equal to 0.0.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import glmdopt as g

ROOT = Path(__file__).resolve().parents[1]


def warns(X):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g.design_matrix(X)
    return any("duplicate rows" in str(w.message) for w in caught)


def test_verdict_matches_unique_rows(rng):
    for _ in range(300):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d, 12))
        X = rng.integers(-1, 2, (m, d)).astype(float)
        X[rng.random((m, d)) < 0.3] *= -1.0  # signed zeros among the zeros
        assert warns(X) == (len(np.unique(X, axis=0)) < len(X)), X


@pytest.mark.parametrize("X, duplicate", [
    ([[1.0, -0.0], [2.0, 3.0], [1.0, 0.0]], True),
    ([[0.0, 1.0], [1.0, 0.0]], False),
    ([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [1.0, 2.0, 3.0]], True),
])
def test_known_verdicts(X, duplicate):
    assert warns(np.array(X)) == duplicate


def test_cli_weights_leaves_numpy_ma_unloaded():
    # a fresh interpreter: the test session has numpy.ma loaded already
    script = (
        "import runpy, sys\n"
        "sys.argv = ['glmdopt', 'weights', '--config', 'demos/configs/logistic_2x3.json']\n"
        "try:\n"
        "    runpy.run_module('glmdopt', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "eta" in proc.stdout
    assert proc.stderr.strip() == "False"
