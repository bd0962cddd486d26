"""Optimality certificates for approximate designs.

An allocation p with f(p) > 0 is D-optimal if and only if for every
coordinate i either

  (i)  p_i = 0 and f_i(1/2) <= (d+1)/2^d * f(p), or
  (ii) 0 < p_i <= 1/d and f_i(0) = (1 - p_i d)/(1 - p_i)^d * f(p),

where f_i(z) is the objective along the lift of coordinate i.  A
saturated design (exactly d support points at mass 1/d each) admits a
cheaper test, one inequality per excluded row evaluated with a single
d x d solve, implemented by ``check_saturated``.

``verify_optimal`` evaluates these inequalities from the leverages
delta_i = w_i x_i' M(p)^-1 x_i, where they read delta_i <= d on zero-mass
points and delta_i = d on support points (Kiefer and Wolfowitz, 1960);
the tests check them against the determinant oracles in ``objective``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SingularDesign, SingularSupport
from .objective import (MASS_ATOL, allocation, design_problem, information_inverse,
                        leverages, lift_coefficients, objective, require_spans, spans)

DEFAULT_TOL = 1e-7


@dataclass(frozen=True)
class PointCheck:
    """Per-coordinate verdict of the equivalence conditions.

    lhs and rhs are the two sides of the applicable condition: the lifted
    objective value against its bound for the zero-mass case, or the two
    sides of the equality for the positive-mass case.  When a positive
    mass exceeds 1/d the condition fails outright without evaluating the
    objective, and lhs/rhs record the mass against the 1/d bound instead.
    """

    index: int
    case: str  # "zero-mass" or "positive-mass"
    lhs: float
    rhs: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class OptimalityCertificate:
    optimal: bool
    per_point: tuple[PointCheck, ...]
    tolerance: float

    def __post_init__(self):
        agg = all(pc.passed for pc in self.per_point)
        if self.optimal != agg:
            raise SingularDesign("certificate verdict out of sync with points")


@dataclass(frozen=True)
class SaturatedPoint:
    """One non-support row's inequality check: lhs <= rhs with margin = rhs - lhs."""

    index: int
    lhs: float
    rhs: float
    margin: float
    passed: bool


def verify_optimal(X, w, p, tol: float = DEFAULT_TOL) -> OptimalityCertificate:
    """Check the D-optimality conditions for allocation p.

    Masses at or below 1e-12 are clamped to zero before checking (noted
    per point); the equality condition is accepted within tol * f(p), and
    the 1/d mass bound carries the same tol as slack since a converged
    saturated-type optimum sits at 1/d plus float drift.  Verdicts are
    decided on the scale-free leverage form; lhs and rhs report the
    objective values f_i(1/2), f_i(0) and their bounds.

    Raises
    ------
    SingularDesign
        If the rows carrying mass under p do not span R^d.
    """
    X, w = design_problem(X, w)
    m, d = X.shape
    p = allocation(p, m)
    require_spans(X, p, "cannot certify a design with a singular information matrix")
    f = objective(X, w, p)

    delta = leverages(X, w, information_inverse(X, w, p))
    zero, over, at_zero, at_half, passed = _conditions(p, delta, d, tol)
    bound_zero = (d + 1.0) / 2.0**d * f
    checks = []
    for i in range(m):
        pi, ok = float(p[i]), bool(passed[i])
        if zero[i]:
            note = f"mass {pi:.3g} clamped to zero" if pi > 0.0 else ""
            pc = PointCheck(i, "zero-mass", float(at_half[i]) * f, bound_zero, ok, note)
        elif over[i]:
            pc = PointCheck(i, "positive-mass", pi, 1.0 / d, False,
                            "mass exceeds 1/d, which rules out optimality")
        elif pi == 1.0:  # d = 1 with all mass here: f_i(0) and its bound are 0/0
            pc = PointCheck(i, "positive-mass", float(delta[i]), float(d), ok,
                            "all mass on one point: leverage checked against d")
        else:
            rhs = (1.0 - pi * d) / (1.0 - pi) ** d * f
            pc = PointCheck(i, "positive-mass", float(at_zero[i]) * f, rhs, ok)
        checks.append(pc)
    return OptimalityCertificate(optimal=bool(passed.all()), per_point=tuple(checks), tolerance=tol)


def _conditions(p, delta, d, tol):
    """Zero-mass and over-1/d masks, f_i(0)/f, f_i(1/2)/f and verdicts.

    The equality condition is decided with its common terms cancelled:
    p_i |delta_i - d| / (1-p_i)^d <= tol, or |delta_i - d| <= tol at p_i = 1.
    """
    zero = p <= MASS_ATOL
    over = ~zero & (p > 1.0 / d + tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, at_zero = lift_coefficients(p, delta, d)
        at_half = (a + at_zero) / 2.0**d
        gap = np.where(p < 1.0, p * np.abs(delta - d) / (1.0 - p) ** d, np.abs(delta - d))
    passed = np.where(zero, at_half <= (d + 1.0) / 2.0**d + tol, ~over & (gap <= tol))
    return zero, over, at_zero, at_half, passed


def certified(p, delta, d, tol: float = DEFAULT_TOL) -> bool:
    """True when every point passes ``verify_optimal``'s conditions."""
    return bool(_conditions(p, delta, d, tol)[-1].all())


def check_saturated(X, w, support) -> tuple[bool, tuple[SaturatedPoint, ...]]:
    """Certify the saturated design with mass 1/d on the given support.

    The design is D-optimal if and only if for every row i outside the
    support I,

        sum over j in I of det(X[{i} u I \\ {j}])^2 / w_j
            <= det(X[I])^2 / w_i.

    By Cramer's rule det(X[{i} u I \\ {j}]) = det(X[I]) c_j with
    c = X[I]^-T x_i, so one d x d solve gives every left-hand side.
    Returns the verdict plus per-row margins.

    Raises
    ------
    SingularSupport
        If the rows of X[I] do not span R^d (such a saturated design
        cannot be optimal).
    """
    X, w = design_problem(X, w)
    m, d = X.shape
    support = sorted(int(i) for i in support)
    if len(set(support)) != d:
        raise DimensionMismatch(
            f"support must hold {d} distinct indices, got {support}"
        )
    if any(i < 0 or i >= m for i in support):
        raise DimensionMismatch(f"support index outside 0..{m - 1}: {support}")
    if not spans(X, np.bincount(support, minlength=m)):
        raise SingularSupport(
            f"support {support} has a singular design submatrix"
        )

    rest = [i for i in range(m) if i not in support]
    X_I = X[support]
    det2 = float(np.linalg.det(X_I)) ** 2
    C = np.linalg.solve(X_I.T, X[rest].T)
    lhs = det2 * (C * C / w[support, None]).sum(axis=0)
    details = []
    for i, lhs_i in zip(rest, lhs.tolist()):
        rhs = det2 / float(w[i])
        details.append(SaturatedPoint(i, lhs_i, rhs, rhs - lhs_i, lhs_i <= rhs))
    return all(pc.passed for pc in details), tuple(details)
