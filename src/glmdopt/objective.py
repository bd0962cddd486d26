"""Design representations and the D-optimality objective.

The objective for an approximate design p on m candidate points is

    f(p) = det(X' diag(p_1 w_1, ..., p_m w_m) X),

an order-d homogeneous polynomial in p.  This module owns input
validation, the singularity test, the determinant objective and its
subset-expansion oracle, single-coordinate lift profiles, and relative
efficiency.  The optimizers and the certificate share one kernel, the
Cholesky factor L of M(p), which gives log f(p) at any weight scale and
the whitened factor Y = W^1/2 X L^-T (``whitened``): the squared row
norms of Y are the leverages delta_i = w_i x_i' M(p)^-1 x_i, and its Gram
matrix Y Y' holds the pair leverages delta_ij.  Only lift-one's sweep
carries M(p)^-1 itself; the determinant forms stay as the independent
oracles the tests check them against.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NonPositiveWeight,
    SingularDesign,
    TooManySubsets,
)

# Allocations whose mass is at or below this are treated as zero by the
# optimality conditions.
MASS_ATOL = 1e-12

# Guard for the brute-force subset expansion.
MAX_SUBSETS = 10**6

# True inside ``validated``: X and w were checked by the public caller.
_VALIDATED = contextvars.ContextVar("glmdopt_validated", default=False)


def design_matrix(X) -> np.ndarray:
    """Validate an m x d design matrix.

    Entries must be finite and m >= d >= 1.  Duplicate rows are legal
    (they merely split mass between identical settings) but almost always
    indicate a modelling slip, so they trigger a warning.
    """
    if _VALIDATED.get():
        return X
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("design matrix must be two-dimensional")
    m, d = X.shape
    if d < 1 or m < d:
        raise DimensionMismatch(
            f"need m >= d >= 1 rows x columns, got {m} x {d}"
        )
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("design matrix contains non-finite entries")
    rows = X[np.lexsort(X.T)]  # equal rows (-0.0 == 0.0) end up adjacent
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        warnings.warn(
            "design matrix has duplicate rows; they will share mass",
            stacklevel=_caller_stacklevel(),
        )
    return X


def _caller_stacklevel() -> int:
    """``stacklevel`` that names the first frame outside this package, for
    a warning issued by the function that calls this one."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def allocation(p, m: int | None = None) -> np.ndarray:
    """Validate a proportion vector on the simplex.

    Entries must be nonnegative and sum to 1 within 1e-12; tiny float
    drift is renormalized away rather than rejected.  The exact sum of
    the result is 1 (its last rounding goes to the largest entry), so an
    allocation comes back unchanged.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatch("allocation must be a one-dimensional vector")
    if m is not None and p.size != m:
        raise DimensionMismatch(f"allocation has length {p.size}, expected {m}")
    if not np.all(np.isfinite(p)):
        raise NonFiniteInput("allocation contains non-finite entries")
    if np.any(p < 0):
        raise DimensionMismatch("allocation entries must be nonnegative")
    s = math.fsum(p.tolist())
    if abs(s - 1.0) > MASS_ATOL:
        raise DimensionMismatch(f"allocation sums to {s!r}, not 1")
    p = p / s
    for _ in range(2):  # an exact sum rounds to 1 after at most two corrections
        p[np.argmax(p)] += 1.0 - math.fsum(p.tolist())
    return p


def is_integer(value) -> bool:
    """True for a Python or numpy integer; bools and integral floats are not
    counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_tolerance(tol):
    """Raise DimensionMismatch unless tol is a real number, not a bool,
    positive and finite."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 < tol < math.inf):
        raise DimensionMismatch(f"tol must be a positive finite number, got {tol!r}")


def integer_allocation(n, total: int | None = None) -> np.ndarray:
    """Validate a nonnegative integer allocation with the given total."""
    n = np.asarray(n)
    if n.ndim != 1:
        raise DimensionMismatch("integer allocation must be one-dimensional")
    if n.dtype.kind not in "iu":  # integer arrays need no finiteness or rounding check
        x = np.asarray(n, dtype=float)
        if not np.all(np.isfinite(x)):
            raise NonFiniteInput("integer allocation contains non-finite entries")
        n = np.round(x)
        if np.any(x != n):
            raise DimensionMismatch("integer allocation entries must be integers")
    n = n.astype(int)
    if (n < 0).any():
        raise DimensionMismatch("integer allocation entries must be nonnegative")
    if total is not None and int(n.sum()) != int(total):
        raise DimensionMismatch(
            f"integer allocation sums to {int(n.sum())}, expected {total}"
        )
    return n


def _check_dims(X, w, p=None):
    m = X.shape[0]
    if w.shape != (m,):
        raise DimensionMismatch(f"weights of shape {w.shape} for {m} design rows")
    if p is not None and len(p) != m:
        raise DimensionMismatch(f"allocation of length {len(p)} for {m} design rows")


def validated(fn, *args, **kwargs):
    """fn(*args, **kwargs) on arrays its public caller has validated: inside,
    ``design_matrix``, ``design_problem`` and ``require_spans`` pass them
    through unchecked."""
    context = contextvars.copy_context()
    context.run(_VALIDATED.set, True)
    return context.run(fn, *args, **kwargs)


def design_problem(X, w) -> tuple[np.ndarray, np.ndarray]:
    """Validate a design matrix and its weights: one finite, strictly
    positive weight per row.  Returns (X, w) as float arrays."""
    if _VALIDATED.get():
        return X, w
    X = design_matrix(X)
    w = np.asarray(w, dtype=float)
    _check_dims(X, w)
    if not np.all(np.isfinite(w)):
        raise NonFiniteInput("weights contain non-finite entries")
    bad = np.flatnonzero(w <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise NonPositiveWeight(f"weight for row {i} is not positive ({w[i]!r})", index=i)
    return X, w


def spans(X, p) -> bool:
    """True when the rows carrying mass under p span R^d.  With positive
    weights this is exactly when M(p) is nonsingular, at any weight scale."""
    return bool(np.linalg.matrix_rank(X[np.asarray(p) > 0]) == X.shape[1])


def require_spans(X, p, message: str):
    """Raise SingularDesign(message) unless ``spans(X, p)``."""
    if not (_VALIDATED.get() or spans(X, p)):
        raise SingularDesign(message)


def objective(X, w, p) -> float:
    """Evaluate f(p) = det(X' diag(p*w) X).

    Accepts any nonnegative mass vector, normalized or not; f is
    homogeneous of order d, so callers comparing values on the simplex
    should pass proper allocations.  The information matrix is positive
    semidefinite, so negative determinants (pure roundoff) clamp to 0.
    A determinant beyond the double range reads inf without a warning;
    ``log_objective`` gives log f at any scale.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    _check_dims(X, w, p)
    with np.errstate(over="ignore"):
        det = float(np.linalg.det(_information(X, w, p)))
    return det if det > 0.0 else 0.0


def _information(X, w, p) -> np.ndarray:
    """M(p) = X' diag(p*w) X."""
    return X.T @ (X * (p * w)[:, None])


def _cholesky(X, w, p) -> np.ndarray:
    """Cholesky factor L of M(p); raises SingularDesign if M(p) is not
    numerically positive definite."""
    try:
        return np.linalg.cholesky(_information(X, w, p))
    except np.linalg.LinAlgError:
        raise SingularDesign("information matrix is not positive definite") from None


def whitened(X, w, p) -> np.ndarray:
    """Y = W^1/2 X L^-T for the Cholesky factor L of M(p): the leverages are
    delta_i = |y_i|^2 and the pair leverages delta_ij = y_i' y_j."""
    return (X * np.sqrt(w)[:, None]) @ np.linalg.inv(_cholesky(X, w, p)).T


def information_inverse(X, w, p) -> np.ndarray:
    """M(p)^-1 = L^-T L^-1 via the Cholesky factor, at any mass scale."""
    L_inv = np.linalg.inv(_cholesky(X, w, p))
    return L_inv.T @ L_inv


def log_objective(X, w, p) -> float:
    """log f(p) = 2 sum log diag(L), finite wherever M(p) is positive definite."""
    return 2.0 * float(np.log(np.diag(_cholesky(X, w, p))).sum())


def leverages(X, w, M_inv) -> np.ndarray:
    """delta_i = w_i x_i' M^-1 x_i for every row of X from a given M^-1, the
    reference form of the leverages the runtime takes from ``whitened``."""
    return w * np.einsum("ij,jk,ik->i", X, M_inv, X)


def lift_coefficients(p, delta, d):
    """Lift-profile coefficients of f_i(z) / f(p) (matrix determinant lemma):
    a = delta/(1-p_i)^(d-1), b = (1 - p_i delta)/(1-p_i)^d clamped at 0."""
    one = 1.0 - p
    return delta / one ** (d - 1), np.maximum(1.0 - p * delta, 0.0) / one**d


def objective_expansion(X, w, p) -> float:
    """Brute-force f(p) as a sum over all d-row subsets.

    f(p) = sum over {i_1 < ... < i_d} of det(X[i_1..i_d])^2 * prod p_i w_i.
    Serves as an independent oracle for ``objective``; guarded against
    combinatorial blowup.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    _check_dims(X, w, p)
    m, d = X.shape
    if math.comb(m, d) > MAX_SUBSETS:
        raise TooManySubsets(
            f"C({m},{d}) = {math.comb(m, d)} subsets exceeds {MAX_SUBSETS}"
        )
    mass = p * w
    total = 0.0
    for idx in itertools.combinations(range(m), d):
        coef = float(np.prod(mass[list(idx)]))
        if coef == 0.0:
            continue
        sub = float(np.linalg.det(X[list(idx)]))
        total += sub * sub * coef
    return total


def lift_allocation(p, i: int, z: float) -> np.ndarray:
    """The lift of p at coordinate i: set p_i = z, rescale the rest.

    Moves coordinate i to mass z while the other coordinates keep their
    relative proportions, i.e. p_j -> p_j (1-z)/(1-p_i).  If p_i = 1 the
    other coordinates carry no proportions to preserve and stay at zero.
    The z = 0 branch lands on exact zeros, never small positives.
    """
    p = np.asarray(p, dtype=float)
    if not 0.0 <= z <= 1.0:
        raise DimensionMismatch(f"lift mass z = {z!r} outside [0, 1]")
    if not 0 <= i < p.size:
        raise DimensionMismatch(f"lift index {i} outside 0..{p.size - 1}")
    if p[i] == 1.0:
        q = np.zeros_like(p)
    else:
        q = p * ((1.0 - z) / (1.0 - p[i]))
    q[i] = z
    s = q.sum()
    if s > 0.0:
        q /= s
        q[i] = z  # keep the lifted coordinate exact (0.0 stays 0.0)
    return q


@dataclass(frozen=True)
class LiftProfile:
    """Coefficients of the lift polynomial f_i(z) = a z(1-z)^(d-1) + b (1-z)^d."""

    a: float
    b: float
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatch(f"profile degree d = {self.d} must be >= 1")
        if self.a < 0 or self.b < 0 or self.a + self.b <= 0:
            raise SingularDesign(
                f"degenerate lift profile a={self.a!r}, b={self.b!r}"
            )

    def value(self, z: float) -> float:
        one = 1.0 - z
        return self.a * z * one ** (self.d - 1) + self.b * one**self.d


def lift_profile(X, w, p, i: int) -> LiftProfile:
    """Extract the lift-polynomial coefficients at coordinate i.

    One extra objective evaluation suffices: with f = f(p), if p_i > 0
    then b = f_i(0) and a follows from f passing through (p_i, f);
    otherwise b = f and a = f_i(1/2) * 2^d - b.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    p = allocation(p, X.shape[0])
    d = X.shape[1]
    f = objective(X, w, p)
    if f <= 0.0:
        raise SingularDesign("lift profile needs f(p) > 0")
    if p[i] > 0.0:
        b = objective(X, w, lift_allocation(p, i, 0.0))
        one = 1.0 - p[i]
        a = (f - b * one**d) / (p[i] * one ** (d - 1))
    else:
        b = f
        a = objective(X, w, lift_allocation(p, i, 0.5)) * 2.0**d - b
    return LiftProfile(a=max(a, 0.0), b=max(b, 0.0), d=d)


def relative_efficiency(X, w, p_test, p_ref) -> float:
    """(f(p_test) / f(p_ref))^(1/d), the per-parameter efficiency ratio,
    as exp((log f(p_test) - log f(p_ref)) / d) at any weight scale; 0 when
    p_test is singular, SingularDesign when p_ref is."""
    X, w = design_problem(X, w)
    m, d = X.shape
    p_test = allocation(p_test, m)
    p_ref = allocation(p_ref, m)
    require_spans(X, p_ref, "reference design is singular")
    if not spans(X, p_test):
        return 0.0
    return math.exp((log_objective(X, w, p_test) - log_objective(X, w, p_ref)) / d)
