"""Pairwise exchange optimization of exact designs.

For an integer allocation n with fixed total, moving z units onto point i
and s - z onto point j (s = n_i + n_j) traces a concave quadratic

    f_ij(z) = A z(s - z) + B z + C (s - z) + D,

whose integer maximum has a closed form.  The coefficients come from the
leverages delta_ij = sqrt(w_i w_j) x_i' M(n)^-1 x_j by Fedorov's (1972)
f(n + a e_i + b e_j) / f(n) = (1 + a delta_ii)(1 + b delta_jj) - ab delta_ij^2.
A pass visits all C(m,2) pairs in random order and applies every
improving exchange, refreshing M(n)^-1 after each; the algorithm
terminates when a full pass changes nothing.  Exact-design exchange has
no global-optimality guarantee, so ``optimize_exact`` multi-starts it and
keeps the best allocation found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DesignError, DimensionMismatch, EmptyPair
from .liftone import LiftOneOptions, lift_one_optimize
from .objective import (allocation, design_problem, information_inverse, integer_allocation,
                        is_integer, leverage_matrix, log_objective, objective, require_spans,
                        spans, validated)

_ACCEPT = 1.0 + 1e-12


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
    delta = (s * A + B - C) / (2.0 * A)
    if delta < 0:
        return 0, s * C + D
    if delta > s:
        return s, s * B + D

    lo = int(np.floor(delta))
    z = min((z for z in (lo, lo + 1) if z <= s),
            key=lambda z: (abs(delta - z), z if current is None else abs(z - current), z))
    return z, s * C + D + (s * A + B - C) * z - A * z * z


def exchange_optimize(X, w, n0, seed=0) -> np.ndarray:
    """Maximize f(n) over integer allocations with Sum n_i fixed.

    Repeated passes over all pairs in a seeded random order; each pair's
    units are redistributed to the quadratic's integer maximum whenever
    that strictly improves f.  Degenerate pairs with A <= 0 (proportional
    rows) fall back to comparing the two endpoints, where the profile is
    affine.  Returns a new allocation; the total is preserved exactly.

    Raises
    ------
    SingularDesign
        If the rows holding units under n0 do not span R^d.
    DesignError
        If a pass ever changes the total (an internal invariant).
    """
    X, w = design_problem(X, w)
    m = X.shape[0]
    n = integer_allocation(n0)
    if len(n) != m:
        raise DimensionMismatch(f"allocation of length {len(n)} for {m} rows")
    total = int(n.sum())

    require_spans(X, n, "starting exact design has a singular information matrix")

    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(m), 2))
    n = n.tolist()
    # G stays current: it is refreshed after every accepted move
    G = _pair_leverages(X, w, n)
    for _ in range(10_000):
        changed = False
        for k in rng.permutation(len(pairs)).tolist():
            i, j = pairs[k]
            ni, nj = n[i], n[j]
            if ni + nj == 0:
                continue
            z, ratio = _pair_move(G, i, j, ni, nj)
            if z != ni and ratio > _ACCEPT:
                n[i] = z
                n[j] = ni + nj - z
                G = _pair_leverages(X, w, n)
                changed = True
        if sum(n) != total:
            raise DesignError(f"exchange changed the total from {total} to {sum(n)}")
        if not changed:
            break
    return np.array(n)


def _pair_leverages(X, w, n):
    """delta_ij = sqrt(w_i w_j) x_i' M(n)^-1 x_j as nested lists."""
    return leverage_matrix(X, w, information_inverse(X, w, np.array(n, dtype=float))).tolist()


def _scaled_pair_profile(G, n, i, j, s) -> PairProfile:
    """The pair quadratic of f_ij(z) / f(n)."""
    return PairProfile(*_pair_coefficients(G, i, j, float(n[i]), float(n[j])), s=s)


def _pair_coefficients(G, i, j, ni, nj):
    """(A, B, C, D) of the pair quadratic of f_ij(z) / f(n).  In the new
    counts (u, v) Fedorov's identity is D + B u + C v + A u v, which along
    u + v = s is A z(s-z) + B z + C(s-z) + D."""
    dii, djj, dij2 = G[i][i], G[j][j], G[i][j] ** 2
    B = max(dii * (1.0 - nj * djj) + nj * dij2, 0.0)
    C = max(djj * (1.0 - ni * dii) + ni * dij2, 0.0)
    D = max((1.0 - ni * dii) * (1.0 - nj * djj) - ni * nj * dij2, 0.0)
    return dii * djj - dij2, B, C, D


def _pair_move(G, i, j, ni, nj):
    """(z, f_ij(z) / f(n)) for the best split of pair (i, j), n_i + n_j > 0:
    ``maximize_pair`` (current = n_i) on plain floats, with the same
    arithmetic and tie-break.  An affine profile (A <= 0, proportional
    rows) compares its endpoints and keeps z = 0 on a tie."""
    s = ni + nj
    A, B, C, D = _pair_coefficients(G, i, j, float(ni), float(nj))
    if not A > 0:
        return (s, s * B + D) if s * B + D > s * C + D else (0, s * C + D)
    delta = (s * A + B - C) / (2.0 * A)
    if delta < 0:
        return 0, s * C + D
    if delta > s:
        return s, s * B + D
    z = math.floor(delta)
    if z < s and (abs(delta - (z + 1)), abs(z + 1 - ni)) < (abs(delta - z), abs(z - ni)):
        z += 1
    return z, s * C + D + (s * A + B - C) * z - A * z * z


def round_allocation(p, total: int) -> np.ndarray:
    """Largest-remainder rounding of total * p to an integer allocation.

    Floors every entry, then hands the leftover units to the largest
    fractional parts (ties to the lower index).
    """
    if not (is_integer(total) and total >= 1):
        raise DimensionMismatch("total must be a positive integer")
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
    if total < d:
        raise DimensionMismatch(f"total {total} cannot support {d} parameters")
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
