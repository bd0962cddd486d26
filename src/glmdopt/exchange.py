"""Pairwise exchange optimization of exact designs.

For an integer allocation n with fixed total, moving z units onto point i
and s - z onto point j (s = n_i + n_j) traces a concave quadratic

    f_ij(z) = A z(s - z) + B z + C (s - z) + D,

whose integer maximum has a closed form.  The coefficients come from the
leverages delta_ij = sqrt(w_i w_j) x_i' M(n)^-1 x_j by Fedorov's (1972)
f(n + a e_i + b e_j) / f(n) = (1 + a delta_ii)(1 + b delta_jj) - ab delta_ij^2.
A pass visits all C(m,2) pairs in random order and applies every
improving exchange, refreshing the leverages after each as G = Y Y' from
the whitened factor Y = W^1/2 X L^-T of M(n) = L L'; the algorithm
terminates when a full pass changes nothing.  Exact-design exchange has
no global-optimality guarantee, so ``optimize_exact`` multi-starts it and
keeps the best allocation found.

A pass scores its pairs in blocks of 2048: numpy screens a block for
Fedorov's exchange criterion (``_Scan``) with a slack of 1e-10, far above
the rounding of the pair arithmetic, and the pairs that pass are scored
in order on plain floats.  The first accepted move is applied and the
scan resumes after it, so the result is the pair-by-pair loop's, bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DesignError, DimensionMismatch, EmptyPair
from .liftone import LiftOneOptions, lift_one_optimize
from .objective import (allocation, design_problem, integer_allocation, is_integer, log_objective,
                        objective, require_spans, spans, validated, whitened)

_ACCEPT = 1.0 + 1e-12
_BLOCK = 2048
_SLACK = 1e-10
_MAX_PASSES = 10_000
MAX_TOTAL = 2**52  # from here on the floors of p * total, in doubles, can sum past total


@dataclass(frozen=True)
class PairProfile:
    """Quadratic coefficients for redistributing s units within one pair."""

    A: float
    B: float
    C: float
    D: float
    s: int


def pair_profile(X, w, n, i: int, j: int) -> PairProfile:
    """Fit f_ij(z) = A z(s-z) + B z + C (s-z) + D from four objective values.

    D is the objective with both points emptied; B and C come from the
    endpoints z = s and z = 0; A comes from the midpoint s/2 (a fractional
    allocation, which is fine: f is a polynomial in z).

    Raises
    ------
    EmptyPair
        If n_i + n_j = 0 (the caller should skip such pairs).
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    n = np.asarray(n, dtype=float)
    if i == j:
        raise DimensionMismatch("pair indices must differ")
    s = float(n[i] + n[j])
    if s <= 0:
        raise EmptyPair(f"pair ({i}, {j}) holds no units")

    base = n.copy()
    base[i] = 0.0
    base[j] = 0.0
    D = objective(X, w, base)

    def f_ij(z):
        base[i] = z
        base[j] = s - z
        val = objective(X, w, base)
        base[i] = 0.0
        base[j] = 0.0
        return val

    f0 = f_ij(0.0)
    fs = f_ij(s)
    fh = f_ij(s / 2.0)
    C = max((f0 - D) / s, 0.0)
    B = max((fs - D) / s, 0.0)
    A = (2.0 / (s * s)) * (2.0 * fh - f0 - fs)
    return PairProfile(A=A, B=B, C=C, D=max(D, 0.0), s=int(s))


def maximize_pair(prof: PairProfile, current: int | None = None) -> tuple[int, float]:
    """Integer argmax of the pair quadratic over z in {0, ..., s}.

    The unconstrained maximum sits at delta = (sA + B - C)/(2A); the
    integer maximum is the closest integer, clamped to [0, s].  When two
    integers are equidistant the one closer to ``current`` wins, then the
    smaller.  Requires A > 0 (guaranteed whenever f(n) > 0 and the pair's
    rows are not proportional).
    """
    A, B, C, D, s = prof.A, prof.B, prof.C, prof.D, prof.s
    if not (A > 0 and B >= 0 and C >= 0 and D >= 0 and s > 0):
        raise DesignError(
            f"maximize_pair needs A > 0, B,C,D >= 0, s > 0; got {prof}"
        )
    return _best_split(A, B, C, D, s, -1 if current is None else current)


def _best_split(A, B, C, D, s, current):
    """``maximize_pair`` unchecked; a negative ``current`` prefers the
    smaller z.  An affine profile (A <= 0, proportional rows) compares
    its endpoints and keeps z = 0 on a tie."""
    if not A > 0:
        return (s, s * B + D) if s * B + D > s * C + D else (0, s * C + D)
    delta = (s * A + B - C) / (2.0 * A)
    if delta < 0:
        return 0, s * C + D
    if delta > s:
        return s, s * B + D
    z = math.floor(delta)
    if z < s and (abs(delta - (z + 1)), abs(z + 1 - current)) < (abs(delta - z), abs(z - current)):
        z += 1
    return z, s * C + D + (s * A + B - C) * z - A * z * z


def exchange_optimize(X, w, n0, seed=0) -> np.ndarray:
    """Maximize f(n) over integer allocations with Sum n_i fixed.

    Repeated passes over all pairs in a seeded random order; each pair's
    units are redistributed to the quadratic's integer maximum whenever
    that strictly improves f.  Degenerate pairs with A <= 0 (proportional
    rows) fall back to comparing the two endpoints, where the profile is
    affine.  Returns a new allocation; the total is preserved exactly.
    seed is a non-negative integer or a ``numpy.random.SeedSequence``.

    Raises
    ------
    DimensionMismatch
        If the seed is neither.
    SingularDesign
        If the rows holding units under n0 do not span R^d.
    DesignError
        If a pass ever changes the total (an internal invariant), or if
        the search has not settled after ``_MAX_PASSES`` passes.
    """
    X, w = design_problem(X, w)
    m = X.shape[0]
    n = integer_allocation(n0)
    if len(n) != m:
        raise DimensionMismatch(f"allocation of length {len(n)} for {m} rows")
    if not (is_integer(seed) and seed >= 0 or isinstance(seed, np.random.SeedSequence)):
        raise DimensionMismatch("seed must be a non-negative integer or a SeedSequence")
    total = int(n.sum())

    require_spans(X, n, "starting exact design has a singular information matrix")

    rng = np.random.default_rng(seed)
    scan = _Scan(X, w, n)
    P = len(scan.flat)
    for _ in range(_MAX_PASSES):
        order, k, changed = rng.permutation(P), 0, False
        while k < P:
            t = scan.first_move(order[k:k + _BLOCK])
            if t is None:
                k += _BLOCK
            else:
                k, changed = k + t + 1, True
        if not changed:
            break
    else:
        raise DesignError(f"exchange did not settle in {_MAX_PASSES} passes")
    if n.sum() != total:
        raise DesignError(f"exchange changed the total from {total} to {n.sum()}")
    return n


def _pair_leverages(X, w, n):
    """G = Y Y' for Y = ``whitened(X, w, n)``, so G_ij = delta_ij =
    sqrt(w_i w_j) x_i' M(n)^-1 x_j."""
    Y = whitened(X, w, np.array(n, dtype=float))
    return Y @ Y.T.copy()  # a plain GEMM: numpy's symmetric product of Y with itself is slower


class _Scan:
    """n, its G = ``_pair_leverages`` and the screen's per-point tables,
    refreshed after every move.  With N = sum(n) and c = ``_SLACK``, a pair
    moves towards i only if n_j > 0 and (1 + cN) delta_ij^2 + (1 + c)
    delta_ii - (1 - c) delta_jj >= (1 - cN) delta_ii delta_jj (Fedorov's
    |delta_ii - delta_jj| >= A with slack), and likewise towards j, as long
    as G is accurate to c: positive semidefinite, with n_i delta_ii <= 1.
    The tables hold these factors over 1 + cN."""

    def __init__(self, X, w, n):
        m, N, c = len(n), int(n.sum()), _SLACK
        self.X, self.w, self.n = X, w, n
        points = np.arange(m)
        self.rows, self.cols = np.nonzero(points[:, None] < points)  # itertools.combinations order
        self.flat = self.rows * m + self.cols
        self.factors = np.array([[1.0 + c], [1.0 - c], [1.0 - c * N]]) / (1.0 + c * N)
        self.refresh()

    def refresh(self):
        self.G = _pair_leverages(self.X, self.w, self.n)
        self.d = self.G.diagonal()
        self.up, self.down, self.shrunk = self.d * self.factors
        self.down[self.n == 0] = np.inf  # empty points give no units

    def first_move(self, order):
        """Apply the first accepted move among the pairs ``order`` and
        return its position there, or None."""
        I, J, d, G, n = self.rows[order], self.cols[order], self.d, self.G, self.n
        up, down = self.up, self.down
        q = G.ravel()[self.flat[order]]
        q *= q
        passed = q + np.maximum(up[I] - down[J], up[J] - down[I]) >= d[I] * self.shrunk[J]
        for t in passed.nonzero()[0].tolist():  # in order, as the pair-by-pair loop scores them
            i, j = int(I[t]), int(J[t])
            ni, s = int(n[i]), int(n[i] + n[j])
            coefs = _pair_coefficients(*map(float, (d[i], d[j], G[i, j], ni, s - ni)))
            z, ratio = _best_split(*coefs, s, ni)
            if z != ni and ratio > _ACCEPT:
                n[i], n[j] = z, s - z
                self.refresh()
                return t
        return None


def _pair_coefficients(dii, djj, dij, ni, nj):
    """(A, B, C, D) of the pair quadratic of f_ij(z) / f(n).  In the new
    counts (u, v) Fedorov's identity is D + B u + C v + A u v, which along
    u + v = s is A z(s-z) + B z + C(s-z) + D."""
    dij2 = dij * dij  # not ** 2, which is libm's pow and may differ in the last bit
    B = max(dii * (1.0 - nj * djj) + nj * dij2, 0.0)
    C = max(djj * (1.0 - ni * dii) + ni * dij2, 0.0)
    D = max((1.0 - ni * dii) * (1.0 - nj * djj) - ni * nj * dij2, 0.0)
    return dii * djj - dij2, B, C, D


def round_allocation(p, total: int) -> np.ndarray:
    """Largest-remainder rounding of total * p to an integer allocation.

    Floors every entry, then hands the leftover units to the largest
    fractional parts (ties to the lower index).  total must be below
    ``MAX_TOTAL``.
    """
    if not (is_integer(total) and 1 <= total < MAX_TOTAL):
        raise DimensionMismatch(f"total must be a positive integer below 2**52, got {total!r}")
    p = allocation(p)
    scaled = p * total
    base = np.floor(scaled).astype(int)
    leftover = int(total - base.sum())
    if leftover > 0:
        frac = scaled - base
        order = np.argsort(-frac, kind="stable")
        base[order[:leftover]] += 1
    return base


def _exact_start(X, p, total):
    """Largest-remainder rounding of p to total units.  If the rounded
    support does not span R^d, seat one unit on each of d spanning rows,
    taken greedily in order of decreasing p, and round the other
    total - d units."""
    n = round_allocation(p, total)
    if spans(X, n):
        return n
    m, d = X.shape
    rows = []
    for i in np.argsort(-p, kind="stable").tolist():
        if np.linalg.matrix_rank(X[rows + [i]]) > len(rows):
            rows.append(i)
            if len(rows) == d:
                break
    n = np.bincount(rows, minlength=m)
    if total > d:
        n += round_allocation(p, total - d)
    return n


def optimize_exact(X, w, total: int, seed=0, n_starts: int = 5) -> np.ndarray:
    """Approximate-then-exact pipeline with multi-start exchange.

    Runs lift-one, rounds its optimum to ``total`` units by largest
    remainder (seating one unit on each of d spanning rows first if the
    rounding dropped essential rows), then runs the exchange from that
    start with ``n_starts`` different pair orders and returns the best
    allocation found, compared by log f.
    """
    X, w = design_problem(X, w)
    m, d = X.shape
    if not is_integer(total):
        raise DimensionMismatch(f"total must be an integer, got {total!r}")
    if not d <= total < MAX_TOTAL:
        raise DimensionMismatch(f"total {total} must be at least d = {d} and below 2**52")
    if not (is_integer(n_starts) and n_starts >= 1):
        raise DimensionMismatch("n_starts must be a positive integer")
    require_spans(X, np.ones(m), "design matrix has rank below its column count")
    approx = validated(lift_one_optimize, X, w, opts=LiftOneOptions(seed=seed))
    n0 = _exact_start(X, approx.p_opt, total)

    best_n, best_lf = None, -math.inf
    for child in np.random.SeedSequence(seed).spawn(n_starts):
        n = validated(exchange_optimize, X, w, n0, seed=child)
        lf = log_objective(X, w, n)
        if lf > best_lf + math.log(_ACCEPT):
            best_n, best_lf = n, lf
    return best_n
