"""Lift-one coordinate ascent for approximate D-optimal designs.

One round visits every coordinate in random order; each visit lifts the
coordinate to the closed-form maximum of its profile polynomial

    f_i(z) = a z(1-z)^(d-1) + b (1-z)^d,

rescaling the remaining mass proportionally.  a and b come from the
leverage of coordinate i, so the ascent works on ratios f_i(z)/f free of
the weights' scale.  The sweep runs on plain floats; M(p)^-1 is refreshed
each round and carried through accepted lifts by in-place Sherman-Morrison
updates.  Every ``safeguard_period``-th round applies the single best
coordinate move over all m, so the iteration cannot stall on sweep order.
Once a round gains less than ``tol``, polish steps move the coordinate
whose profile maximum lies farthest from its mass (gains fall below
rounding near the optimum, displacements do not) until the optimality
certificate holds, the only case reported as ``converged``.  Safeguard
and polish take every coordinate's best lift in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import OptimalityCertificate, certified, verify_optimal
from .errors import DimensionMismatch
from .objective import (allocation, design_problem, information_inverse, leverages,
                        lift_allocation, lift_coefficients, objective, require_spans,
                        validated)

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


def _best_lifts(p, delta, d):
    """``maximize_profile`` for every coordinate: arrays z*, f_i(z*)/f from
    masses p and leverages delta.  p_i = 1 (only for d = 1) stays: z* = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = lift_coefficients(p, delta, d)
        z = np.where(a > b * d, (a - b * d) / ((a - b) * d), 0.0)
        one = 1.0 - z
        ratio = a * z * one ** (d - 1) + b * one**d
    full = p == 1.0
    return np.where(full, 1.0, z), np.where(full, 1.0, ratio)


def _lift(pi, delta, d):
    """``_best_lifts`` for one coordinate, on plain floats."""
    if pi == 1.0:
        return 1.0, 1.0
    one = 1.0 - pi
    a = delta / one ** (d - 1)
    b = max(1.0 - pi * delta, 0.0) / one**d
    if a > b * d:
        z = (a - b * d) / ((a - b) * d)
        return z, a * z * (1.0 - z) ** (d - 1) + b * (1.0 - z) ** d
    return 0.0, b


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
    require_spans(X, p, "starting allocation has a singular information matrix")

    rng = np.random.default_rng(opts.seed)
    accept = 1.0 + opts.tol
    rows, wl, v, vv = list(X), w.tolist(), np.empty(d), np.empty((d, d))
    for rounds in range(1, opts.max_rounds + 1):
        if rounds % opts.safeguard_period == 0:
            z, ratio = _best_lifts(p, leverages(X, w, information_inverse(X, w, p)), d)
            best = int(np.argmax(ratio))
            improved = ratio[best] > accept
            if improved:
                p = lift_allocation(p, best, z[best])
        else:
            M_inv = information_inverse(X, w, p)
            improved = False
            for i in rng.permutation(m).tolist():
                v = np.dot(M_inv, rows[i], out=v)
                pi, delta = p.item(i), wl[i] * float(rows[i] @ v)
                z, ratio = _lift(pi, delta, d)
                if ratio > accept:
                    c = (1.0 - z) / (1.0 - pi)
                    p *= c
                    p[i] = z
                    p /= p.sum()
                    p[i] = z
                    if c > 0.0:  # Sherman-Morrison: M -> c (M + g w_i x_i x_i')
                        g = z / c - pi
                        vv = np.multiply.outer(v, v, out=vv)
                        vv *= g * wl[i] / (1.0 + g * delta)
                        M_inv -= vv
                        M_inv /= c
                    else:  # z = 1, possible only for d = 1: all mass on row i
                        M_inv = information_inverse(X, w, p)
                    improved = True
        if not improved:
            break
    stationary = not improved

    polish_steps = 0
    if stationary:
        for _ in range(min(200 * m, _POLISH_CAP)):
            delta = leverages(X, w, information_inverse(X, w, p))
            if certified(p, delta, d):
                break
            z = _best_lifts(p, delta, d)[0]
            best = int(np.argmax(np.abs(z - p)))
            q = lift_allocation(p, best, z[best])
            if np.array_equal(q, p):
                break
            p = q
            polish_steps += 1

    certificate = validated(verify_optimal, X, w, p)
    return LiftOneResult(
        p_opt=p,
        f_opt=objective(X, w, p),
        rounds=rounds,
        converged=stationary and certificate.optimal,
        certificate=certificate,
        polish_steps=polish_steps,
    )
