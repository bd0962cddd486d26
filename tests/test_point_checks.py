"""The certificate keeps p, the leverages, f, d and tol, not m objects.

``per_point`` builds each ``PointCheck`` when it is read; these tests hold
it to the checks an eager loop builds from the same formulas.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import glmdopt as g
from conftest import gamma_2x4, logit_2x3, poisson_2x2
from glmdopt.certify import DEFAULT_TOL, _conditions
from glmdopt.objective import allocation, objective, whitened


def eager(X, w, p, tol=DEFAULT_TOL):
    """The per-point loop ``verify_optimal`` used to run."""
    d = X.shape[1]
    p = allocation(p, X.shape[0])
    f = objective(X, w, p)
    Y = whitened(X, w, p)
    delta = np.einsum("ij,ij->i", Y, Y)
    zero, over, band, at_zero, at_half, passed = _conditions(p, delta, d, tol)
    checks = []
    for i in range(len(p)):
        pi, ok = float(p[i]), bool(passed[i])
        if zero[i]:
            note = f"mass {pi:.3g} clamped to zero" if pi > 0.0 else ""
            pc = g.PointCheck(i, "zero-mass", float(at_half[i]) * f, (d + 1.0) / 2.0**d * f, ok, note)
        elif over[i]:
            pc = g.PointCheck(i, "positive-mass", pi, 1.0 / d, False,
                              "mass exceeds 1/d, which rules out optimality")
        elif pi == 1.0:
            pc = g.PointCheck(i, "positive-mass", float(delta[i]), float(d), ok,
                              "all mass on one point: leverage checked against d")
        else:
            rhs = (1.0 - pi * d) / (1.0 - pi) ** d * f
            note = "" if band[i] else "leverage exceeds d"
            pc = g.PointCheck(i, "positive-mass", float(at_zero[i]) * f, rhs, ok, note)
        checks.append(pc)
    return checks


def cases():
    X, _, w = gamma_2x4()
    p_opt = g.lift_one_optimize(X, w).p_opt
    tiny = p_opt.copy()
    tiny[1] = 1e-13
    yield "optimum", X, w, p_opt
    yield "clamped", X, w, tiny / tiny.sum()
    yield "over 1/d", X, w, np.r_[0.6, np.full(7, 0.4 / 7)]
    yield "uniform", X, w, np.full(8, 1.0 / 8)
    X, _, w = poisson_2x2([1.0, 1.0, -2.0])
    yield "saturated", X, w, np.array([1.0, 1.0, 0.0, 1.0]) / 3.0
    # a tiny mass whose leverage exceeds d
    yield "band", np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]), np.ones(3), np.array([0.5, 0.5 - 1e-9, 1e-9])
    yield "one column", np.array([[1.0], [2.0]]), np.ones(2), np.array([0.0, 1.0])


CASES = {name: rest for name, *rest in cases()}


@pytest.mark.parametrize("name", CASES)
def test_every_branch_matches_the_eager_loop(name):
    X, w, p = CASES[name]
    cert = g.verify_optimal(X, w, p)
    expect = eager(X, w, p)
    assert list(cert.per_point) == expect
    assert cert.optimal == all(pc.passed for pc in expect)


def test_cases_reach_every_branch():
    notes = {pc.note.split(" ")[0] if pc.note else pc.case
             for X, w, p in CASES.values() for pc in eager(X, w, p)}
    assert notes == {"zero-mass", "positive-mass", "mass", "leverage", "all"}
    assert any("clamped" in pc.note for X, w, p in CASES.values() for pc in eager(X, w, p))


def test_sequence_protocol():
    X, _, w = logit_2x3()
    res = g.lift_one_optimize(X, w)
    points = res.certificate.per_point
    expect = eager(X, w, res.p_opt)
    assert len(points) == 6
    assert list(points) == expect
    assert [points[i] for i in range(6)] == expect
    assert points[-1] == expect[-1] and points[-6] == expect[0]
    assert points[1:4] == tuple(expect[1:4])
    assert expect[2] in points and points.index(expect[2]) == 2
    with pytest.raises(IndexError):
        points[6]
    with pytest.raises(IndexError):
        points[-7]
    with pytest.raises(TypeError):
        points[0] = expect[0]
    assert [dataclasses.asdict(pc) for pc in points] == [dataclasses.asdict(pc) for pc in expect]
    assert res.certificate == g.verify_optimal(X, w, res.p_opt)
    assert res.certificate != g.verify_optimal(X, w, np.full(6, 1.0 / 6))
    assert repr(res.certificate) == repr(g.verify_optimal(X, w, res.p_opt))


def test_tuple_certificates_still_construct():
    X, _, w = logit_2x3()
    cert = g.verify_optimal(X, w, np.full(6, 1.0 / 6))
    same = g.OptimalityCertificate(optimal=cert.optimal, per_point=tuple(cert.per_point),
                                   tolerance=cert.tolerance)
    assert list(same.per_point) == list(cert.per_point)
    with pytest.raises(g.SingularDesign):
        g.OptimalityCertificate(optimal=not cert.optimal, per_point=cert.per_point,
                                tolerance=cert.tolerance)


def test_large_certificate_keeps_arrays_not_objects():
    rng = np.random.default_rng(0)
    m, d = 4096, 6
    X = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, (m, d - 1))])
    w = rng.uniform(0.5, 1.0, m)
    p = np.full(m, 1.0 / m)
    g.verify_optimal(X, w, p)  # warm up imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = g.verify_optimal(X, w, p)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # p and the leverages are 2 * 8 * m = 64 KiB; m PointChecks would be
    # several hundred KiB
    assert kept < 4 * 8 * m, kept
    assert len(cert.per_point) == m and cert.per_point[m - 1].index == m - 1
