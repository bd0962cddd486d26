"""Lift-one coordinate ascent for approximate D-optimal designs.

One round visits every coordinate in random order; each visit lifts the
coordinate to the closed-form maximum of its profile polynomial

    f_i(z) = a z(1-z)^(d-1) + b (1-z)^d,

rescaling the remaining mass proportionally.  a and b come from the
leverage of coordinate i, so the ascent works on ratios f_i(z)/f free of
the weights' scale; M(p)^-1 is refreshed each round and carried through
accepted lifts by Sherman-Morrison updates.  Every ``safeguard_period``-th
round applies the single best coordinate move over all m instead of a
random sweep, so the iteration cannot stall on sweep order.  Once a round
gains less than ``tol``, polish steps move the coordinate whose profile
maximum lies farthest from its mass (near the optimum gains fall below
rounding, displacements do not) until the optimality certificate holds;
``converged`` is reported only when it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import OptimalityCertificate, certified, verify_optimal
from .errors import DimensionMismatch, SingularDesign
from .objective import (LiftProfile, allocation, design_problem, information_inverse,
                        leverages, lift_allocation, lift_coefficients, objective, spans)

_POLISH_CAP = 2000


@dataclass(frozen=True)
class LiftOneOptions:
    """Tuning knobs for the optimizer.

    seed drives the per-round random coordinate order; tol is the
    relative improvement threshold below which a round counts as
    stationary.
    """

    seed: int = 0
    max_rounds: int = 1000
    tol: float = 1e-10
    safeguard_period: int = 10

    def __post_init__(self):
        if self.max_rounds < 1:
            raise DimensionMismatch("max_rounds must be at least 1")
        if not self.tol > 0:
            raise DimensionMismatch("tol must be positive")
        if self.safeguard_period < 1:
            raise DimensionMismatch("safeguard_period must be at least 1")


@dataclass(frozen=True)
class LiftOneResult:
    """Optimizer outcome.

    converged is True only when the iteration reached stationarity within
    max_rounds AND the final point passes the optimality certificate; the
    certificate itself is attached for inspection either way.
    """

    p_opt: np.ndarray
    f_opt: float
    rounds: int
    converged: bool
    certificate: OptimalityCertificate
    polish_steps: int = field(default=0)


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


def _best_lift(pi, delta, d):
    """(z*, f_i(z*)/f) for one coordinate with mass pi and leverage delta."""
    a, b = lift_coefficients(pi, delta, d)
    return maximize_profile(LiftProfile(a=max(a, 0.0), b=float(b), d=d))


def _all_lifts(X, w, p, d):
    """Best lift of every coordinate, from a fresh M(p)^-1."""
    delta = leverages(X, w, information_inverse(X, w, p))
    return delta, [_best_lift(pi, di, d) for pi, di in zip(p.tolist(), delta.tolist())]


def _lifted_inverse(M_inv, v, wi, delta, pi, z):
    """M^-1 after lifting coordinate i from pi to z, by Sherman-Morrison:
    the lift maps M to c (M + g w_i x_i x_i') with c = (1-z)/(1-pi),
    g = z/c - pi; v = M^-1 x_i and delta = w_i x_i' v."""
    c = (1.0 - z) / (1.0 - pi)
    g = z / c - pi
    return (M_inv - (g * wi / (1.0 + g * delta)) * np.outer(v, v)) / c


def lift_one_optimize(X, w, p0=None, opts: LiftOneOptions | None = None) -> LiftOneResult:
    """Maximize f(p) = det(X' diag(p*w) X) over the simplex.

    Parameters
    ----------
    X : array_like
        m x d design matrix of rank d.
    w : array_like
        Finite, strictly positive weight vector of length m.
    p0 : array_like, optional
        Starting allocation; defaults to uniform, which has f > 0
        whenever X has rank d.
    opts : LiftOneOptions, optional

    Raises
    ------
    SingularDesign
        If the rows carrying mass under p0 do not span R^d.
    """
    X, w = design_problem(X, w)
    m, d = X.shape
    opts = opts or LiftOneOptions()
    p = np.full(m, 1.0 / m) if p0 is None else allocation(p0, m)

    if not spans(X, p):
        raise SingularDesign("starting allocation has a singular information matrix")

    rng = np.random.default_rng(opts.seed)
    accept = 1.0 + opts.tol
    stationary = False
    rounds = 0
    for rnd in range(1, opts.max_rounds + 1):
        rounds = rnd
        if rnd % opts.safeguard_period == 0:
            _, moves = _all_lifts(X, w, p, d)
            best = max(range(m), key=lambda i: moves[i][1])
            z, ratio = moves[best]
            if not ratio > accept:
                stationary = True
                break
            p = lift_allocation(p, best, z)
        else:
            M_inv = information_inverse(X, w, p)
            improved = False
            for i in rng.permutation(m):
                v = M_inv @ X[i]
                delta = w[i] * float(X[i] @ v)
                z, ratio = _best_lift(float(p[i]), delta, d)
                if ratio > accept:
                    M_inv = _lifted_inverse(M_inv, v, w[i], delta, p[i], z)
                    p = lift_allocation(p, i, z)
                    improved = True
            if not improved:
                stationary = True
                break

    polish_steps = 0
    if stationary:
        for _ in range(min(200 * m, _POLISH_CAP)):
            delta, moves = _all_lifts(X, w, p, d)
            if certified(p, delta, d):
                break
            best = max(range(m), key=lambda i: abs(moves[i][0] - p[i]))
            q = lift_allocation(p, best, moves[best][0])
            if np.array_equal(q, p):
                break
            p = q
            polish_steps += 1

    f_opt = objective(X, w, p)
    certificate = verify_optimal(X, w, p)
    return LiftOneResult(
        p_opt=p,
        f_opt=f_opt,
        rounds=rounds,
        converged=stationary and certificate.optimal,
        certificate=certificate,
        polish_steps=polish_steps,
    )
