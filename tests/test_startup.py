"""Start-up cost: glmdopt runs on numpy alone, probit weights included.

Each check runs in a fresh interpreter, since the test session itself
has scipy loaded already (the probit oracle below uses ``ndtr``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtr

import glmdopt as g

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


def imported_modules(importtime_stderr):
    """Module names from ``-X importtime`` lines 'self | cumulative | name'."""
    names = []
    for line in importtime_stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            names.append(line.rsplit("|", 1)[1].strip())
    return names


def test_import_glmdopt_leaves_scipy_unloaded():
    proc = run("-c", "import sys, glmdopt; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_optimize_does_not_import_scipy(tmp_path):
    demo = ROOT / "demos" / "configs" / "logistic_2x3.json"
    cfg = json.loads(demo.read_text())
    cfg.update(family_link="binary-probit", matrix=str((demo.parent / cfg["matrix"]).resolve()))
    probit = tmp_path / "probit_2x3.json"
    probit.write_text(json.dumps(cfg))
    for path in (demo, probit):
        proc = run("-X", "importtime", "-m", "glmdopt", "optimize",
                   "--config", str(path), "--out", "json")
        assert proc.returncode == 0, proc.stderr
        names = imported_modules(proc.stderr)
        assert "glmdopt.cli" in names and "numpy" in names
        assert [n for n in names if n.split(".")[0] == "scipy"] == []


def test_probit_weights_do_not_import_scipy():
    proc = run(
        "-c",
        "import sys, numpy, glmdopt as g\n"
        "X = numpy.array([[1.0, -1.0], [1.0, 1.0]])\n"
        "g.compute_weights(X, g.GlmModel('binary-probit', numpy.array([0.2, 0.7])))\n"
        "print('scipy' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_probit_weights_match_ndtr():
    eta = np.linspace(-5.0, 5.0, 41)
    X = np.column_stack([np.ones_like(eta), eta])
    w = g.compute_weights(X, g.GlmModel("binary-probit", np.array([0.0, 1.0])))
    phi = np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi)
    # 1 - Phi(eta) as Phi(-eta), which does not cancel in the upper tail
    np.testing.assert_allclose(w, phi * phi / (ndtr(eta) * ndtr(-eta)), rtol=1e-12)
