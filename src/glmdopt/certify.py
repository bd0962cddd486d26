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
Its certificate stores p, the leverages, f, d and tol, and
``per_point`` builds each point's ``PointCheck`` from them when it is
read, so a certificate keeps O(m) floats rather than m objects.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularDesign, SingularSupport
from .objective import (MASS_ATOL, allocation, design_problem, is_integer, lift_coefficients,
                        objective, require_spans, require_tolerance, spans, whitened)

DEFAULT_TOL = 1e-7


@dataclass(frozen=True, slots=True)
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
    """The verdict with its per-point checks.

    per_point is a read-only sequence of ``PointCheck``: from
    ``verify_optimal`` an array-backed one that builds each check when it
    is read, or any tuple of checks the verdict agrees with.
    """

    optimal: bool
    per_point: Sequence[PointCheck]
    tolerance: float

    def __post_init__(self):
        points = self.per_point
        if isinstance(points, _PointChecks):
            agg = points.optimal
        else:
            agg = all(pc.passed for pc in points)
        if self.optimal != agg:
            raise SingularDesign("certificate verdict out of sync with points")


@dataclass(frozen=True, eq=False, slots=True)
class _PointChecks(Sequence):
    """``verify_optimal``'s per-point checks, from the normalized p and the
    leverages delta (both read-only), f = f(p), d and tol, with the
    verdict ``verify_optimal`` drew from them.  Equal when those are."""

    p: np.ndarray
    delta: np.ndarray
    f: float
    d: int
    tol: float
    optimal: bool

    def __len__(self):
        return self.p.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return self._check(range(len(self))[i], self._table())

    def __iter__(self):
        table = self._table()
        return (self._check(i, table) for i in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, _PointChecks):
            return NotImplemented
        return (np.array_equal(self.p, other.p) and np.array_equal(self.delta, other.delta)
                and (self.f, self.d, self.tol) == (other.f, other.d, other.tol))

    def _table(self):
        return _conditions(self.p, self.delta, self.d, self.tol)

    def _check(self, i: int, table) -> PointCheck:
        zero, over, band, at_zero, at_half, passed = table
        d, f = self.d, self.f
        pi, ok = float(self.p[i]), bool(passed[i])
        if zero[i]:
            note = f"mass {pi:.3g} clamped to zero" if pi > 0.0 else ""
            return PointCheck(i, "zero-mass", float(at_half[i]) * f, (d + 1.0) / 2.0**d * f, ok, note)
        if over[i]:
            return PointCheck(i, "positive-mass", pi, 1.0 / d, False,
                              "mass exceeds 1/d, which rules out optimality")
        if pi == 1.0:  # d = 1 with all mass here: f_i(0) and its bound are 0/0
            return PointCheck(i, "positive-mass", float(self.delta[i]), float(d), ok,
                              "all mass on one point: leverage checked against d")
        rhs = (1.0 - pi * d) / (1.0 - pi) ** d * f
        note = "" if band[i] else "leverage exceeds d"
        return PointCheck(i, "positive-mass", float(at_zero[i]) * f, rhs, ok, note)


@dataclass(frozen=True, slots=True)
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
    DimensionMismatch
        If tol is not a positive finite number.
    SingularDesign
        If the rows carrying mass under p do not span R^d.
    """
    require_tolerance(tol)
    X, w = design_problem(X, w)
    m, d = X.shape
    p = allocation(p, m)
    require_spans(X, p, "cannot certify a design with a singular information matrix")
    f = objective(X, w, p)

    Y = whitened(X, w, p)
    delta = np.einsum("ij,ij->i", Y, Y)
    p.flags.writeable = delta.flags.writeable = False  # the checks are built from them on read
    optimal = certified(p, delta, d, tol)
    return OptimalityCertificate(optimal=optimal,
                                 per_point=_PointChecks(p, delta, f, d, tol, optimal),
                                 tolerance=tol)


def _conditions(p, delta, d, tol):
    """Zero-mass, over-1/d and leverage-band masks, f_i(0)/f, f_i(1/2)/f
    and verdicts.

    The equality condition is decided with its common terms cancelled:
    p_i |delta_i - d| / (1-p_i)^d <= tol, or |delta_i - d| <= tol at p_i = 1.
    Since that scales the leverage excess by the mass, a positive-mass
    point must also meet delta_i <= d + 2^d tol, the zero-mass band.
    """
    zero = p <= MASS_ATOL
    over = ~zero & (p > 1.0 / d + tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, at_zero = lift_coefficients(p, delta, d)
        at_half = (a + at_zero) / 2.0**d
        gap = np.where(p < 1.0, p * np.abs(delta - d) / (1.0 - p) ** d, np.abs(delta - d))
    band = delta <= d + 2.0**d * tol
    passed = np.where(zero, at_half <= (d + 1.0) / 2.0**d + tol, ~over & (gap <= tol) & band)
    return zero, over, band, at_zero, at_half, passed


def certified(p, delta, d, tol: float = DEFAULT_TOL) -> bool:
    """True when every point passes ``verify_optimal``'s conditions.

    A leverage above the band by more than rounding settles it without
    the table: a positive-mass point fails the band, and a zero-mass one
    its f_i(1/2) bound, since a + f_i(0)/f >= delta_i (1 - p_i) + 1."""
    if delta.max() > (d + 2.0**d * tol) * (1.0 + 1e-9):
        return False
    return bool(_conditions(p, delta, d, tol)[-1].all())


def check_saturated(X, w, support) -> tuple[bool, tuple[SaturatedPoint, ...]]:
    """Certify the saturated design with mass 1/d on the given support.

    The design is D-optimal if and only if for every row i outside the
    support I,

        sum over j in I of det(X[{i} u I \\ {j}])^2 / w_j
            <= det(X[I])^2 / w_i.

    By Cramer's rule det(X[{i} u I \\ {j}]) = det(X[I]) c_j with
    c = X[I]^-T x_i, so one d x d solve gives every left-hand side.  Each
    row is decided on sum_j c_j^2 / w_j <= 1 / w_i, with det(X[I])^2
    cancelled, so the verdict holds at any scale of X; det(X[I])^2 only
    enters the reported sides, which read 0 or inf where it leaves the
    double range.  Returns the verdict plus per-row margins.

    Raises
    ------
    SingularSupport
        If the rows of X[I] do not span R^d (such a saturated design
        cannot be optimal).
    """
    X, w = design_problem(X, w)
    m, d = X.shape
    if not all(is_integer(i) for i in support):
        raise DimensionMismatch(f"support indices must be integers, got {list(support)}")
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
    C = np.linalg.solve(X_I.T, X[rest].T)
    ratio = (C * C / w[support, None]).sum(axis=0)  # lhs / det(X_I)^2
    passed = ratio <= 1.0 / w[rest]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        det2 = np.linalg.det(X_I) ** 2
        lhs, rhs = det2 * ratio, det2 / w[rest]
        margin = rhs - lhs
    details = tuple(map(SaturatedPoint, rest, lhs.tolist(), rhs.tolist(), margin.tolist(),
                        passed.tolist()))
    return bool(passed.all()), details
