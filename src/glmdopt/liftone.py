"""Lift-one coordinate ascent for approximate D-optimal designs.

Every round visits every coordinate in random order; each visit lifts the
coordinate to the closed-form maximum of its profile polynomial

    f_i(z) = a z(1-z)^(d-1) + b (1-z)^d,

rescaling the remaining mass proportionally.  a and b come from the
leverage of coordinate i, so the ascent works on ratios f_i(z)/f free of
the weights' scale.  The sweep runs on plain floats; M(p)^-1 is refreshed
each round and carried through accepted lifts by in-place Sherman-Morrison
updates.

Coordinate ascent slows to a crawl near the optimum and sheds mass from
points that must leave the support only geometrically.  So once a round
gains less than ``tol``, an active-set Newton finish (on the support plus
the vertex direction of Yang, Biedermann and Tang, 2013) takes over until
the optimality certificate holds, the only case reported as
``converged``; ``polish_steps`` counts its steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import OptimalityCertificate, certified, verify_optimal
from .errors import DimensionMismatch
from .objective import (allocation, design_problem, information_inverse, inverse_factor,
                        is_integer, leverage_matrix, leverages, objective, require_spans,
                        validated)

# A point leaves the support before a Newton step when its mass is below
# this fraction of the mass the step takes from it.
_NEAR_ZERO = 1e-3
# Directions of the Newton model with curvature below this fraction of the
# largest coordinate curvature are flat: the step leaves them alone.
_FLAT = 1e-8
# Backtracking halvings before a step counts as lost in rounding.
_HALVINGS = 60


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

    def __post_init__(self):
        if not (is_integer(self.max_rounds) and self.max_rounds >= 1):
            raise DimensionMismatch("max_rounds must be a positive integer")
        if not self.tol > 0:
            raise DimensionMismatch("tol must be positive")


@dataclass(frozen=True)
class LiftOneResult:
    """Optimizer outcome.

    converged is True only when the iteration reached stationarity within
    max_rounds AND the final point passes the optimality certificate; the
    certificate itself is attached for inspection either way.
    polish_steps counts the Newton steps taken after the sweep.
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


def _lift(pi, delta, d):
    """(z*, f_i(z*)/f) of ``maximize_profile`` for coordinate i, on plain
    floats, from its mass pi and leverage delta.  p_i = 1 (only for d = 1)
    stays: z* = 1."""
    if pi == 1.0:
        return 1.0, 1.0
    one = 1.0 - pi
    a = delta / one ** (d - 1)
    b = max(1.0 - pi * delta, 0.0) / one**d
    if a > b * d:
        z = (a - b * d) / ((a - b) * d)
        return z, a * z * (1.0 - z) ** (d - 1) + b * (1.0 - z) ** d
    return 0.0, b


def _newton_finish(X, w, p, d):
    """Active-set Newton ascent of log f from a stationary sweep.

    On the support S plus the outside point with the largest delta_i > d
    (the vertex direction), log f has gradient delta_S and Hessian
    -(G_S o G_S), and ``_directions`` turns the quadratic model under
    sum_S p = 1 into steps.  The ratio test stops a step where a mass
    reaches zero, and the step halves until log f strictly rises.  Returns
    (p, steps) once ``certified`` holds, or when no direction raises log f.
    """
    steps = 0
    while True:
        L_inv = inverse_factor(X, w, p)
        M_inv = L_inv.T @ L_inv
        delta = leverages(X, w, M_inv)
        if certified(p, delta, d):
            return p, steps
        S = np.flatnonzero(p > 0.0)
        outside = np.where(p > 0.0, -np.inf, delta)
        j = int(np.argmax(outside))
        if outside[j] > d:
            S = np.append(S, j)
        K = leverage_matrix(X[S], w[S], M_inv) ** 2
        Y = L_inv @ (X[S].T * np.sqrt(w[S]))
        for step, reach in _directions(p[S], delta[S], K):
            q = _ascend(p, S, step, reach, Y)
            if q is not None:
                break
        else:
            return p, steps
        p = q
        steps += 1


def _directions(mass, grad, K):
    """Ascent directions of the quadratic model max grad'u - u'K u/2
    subject to sum u = 0, in the order the finish tries them, each with
    the step length it may reach.

    First the Newton step after points whose step is negative and far
    exceeds their mass (``_NEAR_ZERO``) leave at u_i = -mass_i.  Forcing
    them out can cost more than it gains, so next the Newton step that
    drops only massless points (the vertex direction's, when its step is
    negative); a direction is tried only if log f rises along it to first
    order.  Last the gradient along the model's flat directions, followed
    as far as the ratio test allows.
    """
    tried = None
    for near in (_NEAR_ZERO, 0.0):
        out = np.zeros(mass.size, dtype=bool)
        while True:
            step, flat = _model_step(mass, grad, K, out)
            leave = ~out & (step < 0.0) & (mass <= -near * step)
            if not leave.any():
                break
            out |= leave
        if not np.array_equal(out, tried) and grad @ step > 0.0:
            yield step, 1.0
        tried = out
    yield flat, np.inf


def _model_step(mass, grad, K, out):
    """(Newton step, flat ascent direction) of the model with the points in
    ``out`` fixed at u_i = -mass_i.  The other points solve it on their
    sum-zero subspace, whose directions of curvature at most ``_FLAT``
    times the largest curvature along a coordinate (K_ii = delta_i^2) are
    flat: the Newton step leaves them alone, and the flat direction is the
    gradient within them."""
    keep = ~out
    n = int(keep.sum())
    shift = mass[out].sum() / n  # the kept points take up the dropped mass
    Kk = K[np.ix_(keep, keep)]
    rhs = grad[keep] + K[np.ix_(keep, out)] @ mass[out] - shift * Kk.sum(axis=1)
    P = np.eye(n) - 1.0 / n
    e, V = np.linalg.eigh(P @ Kk @ P)
    c = V.T @ (rhs - rhs.mean())
    curved = e > _FLAT * Kk.diagonal().max()
    step, flat = -mass.copy(), np.zeros(mass.size)
    step[keep] = shift + V[:, curved] @ (c[curved] / e[curved])
    flat[keep] = V[:, ~curved] @ c[~curved]
    return step, flat


def _ascend(p, S, step, reach, Y):
    """The first q = p + alpha step on S, alpha from min(reach, the
    ratio-test limit) halving, at which log f rises; None when no alpha
    above rounding does.  With Y = L^-1 X_S' W_S^1/2 for the Cholesky
    factor L of M(p), log f(q) - log f(p) is the sum of log(1 + lambda)
    over the eigenvalues of Y diag(q_S - p_S) Y', free of the rounding of
    two nearly equal log-determinants."""
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.where(step < 0.0, p[S] / -step, np.inf)
    limit = float(room.min())
    alpha = min(reach, limit)
    if not 0.0 < alpha < np.inf:
        return None
    for _ in range(_HALVINGS):
        q = p.copy()
        q[S] += alpha * step
        if alpha == limit:  # the ratio test: the blocking masses reach zero
            q[S[room == limit]] = 0.0
        q = np.maximum(q, 0.0)
        q /= q.sum()
        lam = np.linalg.eigvalsh((Y * (q[S] - p[S])) @ Y.T)
        if lam[0] > -1.0 and np.log1p(lam).sum() > 0.0:
            return q
        alpha /= 2.0
    return None


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
        p, polish_steps = _newton_finish(X, w, p, d)

    certificate = validated(verify_optimal, X, w, p)
    return LiftOneResult(
        p_opt=p,
        f_opt=objective(X, w, p),
        rounds=rounds,
        converged=stationary and certificate.optimal,
        certificate=certificate,
        polish_steps=polish_steps,
    )
