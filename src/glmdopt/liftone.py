"""Lift-one coordinate ascent for approximate D-optimal designs.

Every round visits every coordinate in random order; each visit lifts the
coordinate to the closed-form maximum of its profile polynomial

    f_i(z) = a z(1-z)^(d-1) + b (1-z)^d,

rescaling the remaining mass proportionally.  a and b come from the
leverage of coordinate i, so the ascent works on ratios f_i(z)/f free of
the weights' scale.  The sweep runs on plain floats and keeps p = s q and
M(p)^-1 = t H in scaled form: a lift rescales the other masses by
c = (1-z)/(1-p_i), so it writes q_i alone, multiplies s by c and divides
t by c, and carries H through one in-place Sherman-Morrison update.
M(p)^-1 is refreshed each round, and p = s q renormalized at its end.

Coordinate ascent slows to a crawl near the optimum and sheds mass from
points that must leave the support only geometrically.  So every second
round tries an active-set Newton finish (on the support plus every
vertex direction of Yang, Biedermann and Tang, 2013) from a copy of p;
its result is kept only if the optimality certificate holds, and
otherwise the sweep goes on from its own p.  A round that gains less
than ``tol`` ends the sweep in the finish.  Only a certified finish is
reported as ``converged``; ``polish_steps`` counts the Newton steps of
every try.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import OptimalityCertificate, certified, verify_optimal
from .errors import DimensionMismatch
from .objective import (allocation, design_problem, information_inverse, is_integer, objective,
                        require_spans, require_tolerance, validated, whitened)

# A point leaves the support before a Newton step when its mass is below
# this fraction of the mass the step takes from it.
_NEAR_ZERO = 1e-3
# Directions of the Newton model with curvature below this fraction of the
# largest coordinate curvature are flat: the step leaves them alone.
_FLAT = 1e-8
# Backtracking halvings before a step counts as lost in rounding.
_HALVINGS = 60
# Every this many rounds the sweep tries the Newton finish from where it
# stands.  Its projected steps drop many points at once, so a try from the
# large support of round 2 certifies in a few steps (9 on an m = 512,
# d = 10 logit design); a try from round 1 takes 15 there.
_FINISH_EVERY = 2


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
        if not (is_integer(self.seed) and self.seed >= 0):
            raise DimensionMismatch("seed must be a non-negative integer")
        if not (is_integer(self.max_rounds) and self.max_rounds >= 1):
            raise DimensionMismatch("max_rounds must be a positive integer")
        require_tolerance(self.tol)


@dataclass(frozen=True)
class LiftOneResult:
    """Optimizer outcome.

    converged is True only when a Newton finish, tried every second round
    or after a stationary sweep within max_rounds, certified its point AND
    the attached certificate agrees; the certificate is attached for
    inspection either way.  p_opt is the certificate's own read-only
    copy of the allocation, normalized.  polish_steps counts the Newton
    steps of every finish tried, whether its result was kept or not.
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


def _finish(X, w, p, d):
    """Active-set Newton ascent of log f from p, leaving p itself alone.

    On the support S plus every outside point with delta_i > d (the
    vertex directions), log f has gradient delta_S and Hessian
    -(G_S o G_S), where G_S = Y'Y for the rows Y' of ``whitened`` on S.
    ``_directions`` turns the quadratic model under sum_S p = 1 into
    steps, which ``_ascend`` shortens until log f strictly rises.  Returns
    (p, steps, True) once ``certified`` holds on the leverages of the last
    step, or (p, steps, False) when no direction raises log f.
    """
    steps = 0
    while True:
        Y = whitened(X, w, p)
        delta = np.einsum("ij,ij->i", Y, Y)
        if certified(p, delta, d):
            return p, steps, True
        S = np.flatnonzero((p > 0.0) | (delta > d))
        Y = Y[S].T
        K = (Y.T @ Y.copy()) ** 2  # a plain GEMM: numpy's symmetric Y'Y is slower
        for step, reach in _directions(p[S], delta[S], K):
            q = _ascend(p, S, step, reach, Y)
            if q is not None:
                break
        else:
            return p, steps, False
        p = q
        steps += 1


def _directions(mass, grad, K):
    """Ascent directions of the quadratic model max grad'u - u'K u/2
    subject to sum u = 0, in the order the finish tries them, each with
    the step length it may reach.

    First the Newton step after points whose step is negative and far
    exceeds their mass (``_NEAR_ZERO``) leave at u_i = -mass_i.  Forcing
    them out can cost more than it gains, so next the Newton step that
    drops only massless points (the outside points whose step is
    negative).  Last the gradient along the model's flat directions, which
    takes no mass from a massless point, followed as far as the ratio test
    allows.  A Newton step is tried only if log f rises along it to first
    order by more than along the flat direction: once the model's curved
    part is solved, its steps are rounding and only the flat one gains.
    """
    slope = grad - mass @ grad  # first-order gain in log f of a move u, renormalized
    tried = None
    free = _model_step(mass, grad, K, np.zeros(mass.size, dtype=bool))
    for near in (_NEAR_ZERO, 0.0):
        out = np.zeros(mass.size, dtype=bool)
        step, flat = free
        while (leave := ~out & (step < 0.0) & (mass <= -near * step)).any():
            out |= leave
            step, flat = _model_step(mass, grad, K, out)
        flat = np.where(mass > 0.0, flat, np.maximum(flat, 0.0))
        if not np.array_equal(out, tried) and slope @ step > max(slope @ flat, 0.0):
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
    Kk, shift, rhs = K, 0.0, grad
    if out.any():
        Kk = K[np.ix_(keep, keep)]
        shift = mass[out].sum() / Kk.shape[0]  # the kept points take up the dropped mass
        rhs = grad[keep] + K[np.ix_(keep, out)] @ mass[out] - shift * Kk.sum(axis=1)
    r = Kk.mean(axis=1)
    # P Kk P - mean(r) 11' for P = I - 11'/n: 1 stays flat, at eigenvalue -n mean(r) <= 0
    e, V = np.linalg.eigh(Kk - r - r[:, None])
    c = V.T @ (rhs - rhs.mean())
    curved = e > _FLAT * Kk.diagonal().max()
    step, flat = -mass, np.zeros(mass.size)
    step[keep] = shift + V @ np.divide(c, e, out=np.zeros_like(c), where=curved)
    flat[keep] = V @ np.where(curved, 0.0, c)
    return step, flat


def _ascend(p, S, step, reach, Y):
    """The first q = p + alpha step on S at which log f rises; None when no
    alpha above rounding does.  alpha halves from reach while it exceeds
    the ratio-test limit, where masses that go negative are clamped to zero
    (a projected step, Bertsekas 1982, which can drop many points at once),
    and then from the limit itself, where the blocking masses reach zero.
    With Y' the rows of ``whitened`` on S, log f(q) - log f(p) is the sum
    of log(1 + lambda) over the eigenvalues of Y diag(q_S - p_S) Y', free
    of the rounding of two nearly equal log-determinants."""
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.where(step < 0.0, p[S] / -step, np.inf)
    limit = float(room.min())
    alpha = reach if reach < np.inf else limit
    if not 0.0 < alpha < np.inf:
        return None
    pS = p[S]  # S holds the whole support, so q is zero off S
    for _ in range(_HALVINGS):
        qS = pS + alpha * step
        if alpha == limit:  # the ratio test: the blocking masses reach zero
            qS[room == limit] = 0.0
        np.maximum(qS, 0.0, out=qS)
        qS /= qS.sum()
        lam = np.linalg.eigvalsh((Y * (qS - pS)) @ Y.T)
        if lam[0] > -1.0 and np.log1p(lam).sum() > 0.0:
            q = np.zeros(p.size)
            q[S] = qS
            return q
        alpha = max(alpha / 2.0, limit) if alpha > limit else alpha / 2.0
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
    rows, wl, u, uu = list(X), w.tolist(), np.empty(d), np.empty((d, d))
    finished, polish_steps = False, 0
    for rounds in range(1, opts.max_rounds + 1):
        q, s, H, t = p, 1.0, information_inverse(X, w, p), 1.0  # p = s q, M(p)^-1 = t H
        improved = False
        for i in rng.permutation(m).tolist():
            u = np.dot(H, rows[i], out=u)
            pi, delta = s * q.item(i), wl[i] * t * float(rows[i] @ u)
            z, ratio = _lift(pi, delta, d)
            if ratio > accept:
                c = (1.0 - z) / (1.0 - pi)
                if c > 0.0:  # Sherman-Morrison: M -> c (M + g w_i x_i x_i')
                    g = z / c - pi
                    uu = np.multiply.outer(u, u, out=uu)
                    uu *= t * g * wl[i] / (1.0 + g * delta)
                    H -= uu
                    s, t = s * c, t / c
                    q[i] = z / s
                    if not 1e-100 <= s <= 1e100:  # fold the scales back in
                        q, s, H, t = q * s, 1.0, H * t, 1.0
                else:  # z = 1, possible only for d = 1: all mass on row i
                    q, s = np.zeros(m), 1.0
                    q[i] = 1.0
                    H, t = information_inverse(X, w, q), 1.0
                improved = True
        p = q / q.sum()
        if improved and rounds % _FINISH_EVERY:
            continue
        q, steps, finished = _finish(X, w, p, d)
        polish_steps += steps
        if finished or not improved:  # a stationary sweep ends in the finish
            p = q
            break

    certificate = validated(verify_optimal, X, w, p)
    p = certificate.per_point.p  # normalized and read-only: one copy for both
    return LiftOneResult(
        p_opt=p,
        f_opt=objective(X, w, p),
        rounds=rounds,
        converged=finished and certificate.optimal,
        certificate=certificate,
        polish_steps=polish_steps,
    )
