"""Brute-force determinant oracles for the test suite.

The optimizers and the certificate take every profile, pair move and
leverage from one kernel, the whitened factor of M(p) (``objective``).
The forms here compute the same quantities independently: f(p) as a sum
over d-row subsets, lift profiles from two or three determinant
evaluations, leverages from an explicit M^-1, and the closed-form
maximum of a lift polynomial.  The tests check the kernel against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from glmdopt.errors import DesignError, DimensionMismatch, SingularDesign
from glmdopt.exchange import PairProfile, _pair_coefficients
from glmdopt.objective import _check_dims, allocation, objective

# Guard for the brute-force subset expansion.
MAX_SUBSETS = 10**6


class TooManySubsets(DesignError):
    """The subset-expansion objective would enumerate too many terms."""


def leverages(X, w, M_inv) -> np.ndarray:
    """delta_i = w_i x_i' M^-1 x_i for every row of X from a given M^-1, the
    reference form of the leverages the runtime takes from ``whitened``."""
    return w * np.einsum("ij,jk,ik->i", X, M_inv, X)


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


def maximize_profile(prof) -> tuple[float, float]:
    """Closed-form maximum of f_i(z) = a z(1-z)^(d-1) + b (1-z)^d on [0,1].

    If a > b d the maximum sits at z* = (a - b d)/((a - b) d) with value
    ((d-1)/(a-b))^(d-1) (a/d)^d; otherwise it sits at z* = 0 with value b.
    The returned value is the polynomial evaluated at z*, which equals the
    closed form while staying finite for extreme coefficient scales.
    """
    a, b, d = prof.a, prof.b, prof.d
    if a > b * d:
        z = (a - b * d) / ((a - b) * d)
        return z, prof.value(z)
    return 0.0, b


def _scaled_pair_profile(G, n, i, j, s) -> PairProfile:
    """The pair quadratic of f_ij(z) / f(n)."""
    A, B, C, D = _pair_coefficients(G[i, i], G[j, j], G[i, j], float(n[i]), float(n[j]))
    return PairProfile(A, B, C, D, s)
