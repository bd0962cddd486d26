"""Expected-weight (EW) designs under independent priors on beta.

Instead of fixing beta, average the information weight of each design
point over a prior: ew_i = E[nu(x_i' beta)].  Maximizing |X' E(W) X| is
then an ordinary weighted design problem, so the lift-one machinery and
the optimality certificate apply unchanged with the surrogate weights.

For poisson-log the expectation separates into a product of univariate
moment generating functions and is computed in closed form.  Every other
family uses Monte Carlo over a fixed set of 32 sub-streams spawned from
the seed, so the estimate does not depend on how the work is partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteInput, NonPositiveWeight, UnsupportedCombination
from .liftone import LiftOneOptions, LiftOneResult, lift_one_optimize
from .objective import design_matrix
from .weights import FAMILY_LINKS, WEIGHT_FLOOR, nu_array

_MC_BLOCKS = 32


@dataclass(frozen=True)
class UniformPrior:
    """Independent uniform(lo, hi) prior on one coefficient."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("uniform prior bounds must be finite")
        if not self.lo < self.hi:
            raise ConfigError(
                f"uniform prior needs lo < hi, got ({self.lo}, {self.hi}); "
                "use PointPrior for a degenerate prior"
            )


@dataclass(frozen=True)
class PointPrior:
    """Point mass at a known coefficient value."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigError("point prior value must be finite")


def _check_prior(prior, d: int):
    prior = tuple(prior)
    if len(prior) != d:
        raise ConfigError(f"prior has {len(prior)} components for {d} coefficients")
    for comp in prior:
        if not isinstance(comp, (UniformPrior, PointPrior)):
            raise ConfigError(f"unsupported prior component {comp!r}")
    return prior


def _mgf(comp, x: float) -> float:
    """E[e^{U x}] for one prior component."""
    if isinstance(comp, PointPrior):
        return math.exp(comp.value * x)
    if x == 0.0:
        return 1.0
    t = (comp.hi - comp.lo) * x
    return math.exp(comp.lo * x) * math.expm1(t) / t


def expected_weights(
    X,
    family_link: str,
    prior,
    method: str = "closed-form-poisson",
    samples: int = 100_000,
    seed=None,
    shape=None,
    variance=None,
) -> np.ndarray:
    """Per-row expected weights ew_i = E[nu(x_i' beta)] under the prior.

    ``prior`` is a sequence of d independent components, each a
    ``UniformPrior`` or ``PointPrior``.  ``method`` is either
    ``"closed-form-poisson"`` (exact product of univariate moment
    generating functions; poisson-log only) or ``"monte-carlo"``
    (any family; ``seed`` is required and the draw is split over 32
    fixed sub-streams so the result is reproducible and independent
    of any work partitioning).

    Raises
    ------
    UnsupportedCombination
        If the closed form is requested for a non-poisson family.
    ConfigError
        For bad priors, a missing Monte Carlo seed, or samples < 1.
    """
    X = design_matrix(X)
    m, d = X.shape
    if family_link not in FAMILY_LINKS:
        raise ConfigError(f"unknown family_link {family_link!r}")
    prior = _check_prior(prior, d)

    if method == "closed-form-poisson":
        if family_link != "poisson-log":
            raise UnsupportedCombination(
                f"closed-form expected weights exist only for poisson-log, "
                f"not {family_link}"
            )
        ew = np.ones(m)
        for i in range(m):
            for j, comp in enumerate(prior):
                ew[i] *= _mgf(comp, X[i, j])
    elif method == "monte-carlo":
        if seed is None:
            raise ConfigError("monte-carlo expected weights require an explicit seed")
        if samples < 1:
            raise ConfigError("samples must be a positive integer")
        children = np.random.SeedSequence(seed).spawn(_MC_BLOCKS)
        base, extra = divmod(int(samples), _MC_BLOCKS)
        acc = np.zeros(m)
        for k, child in enumerate(children):
            nb = base + (1 if k < extra else 0)
            if nb == 0:
                continue
            rng = np.random.default_rng(child)
            draws = np.empty((nb, d))
            for j, comp in enumerate(prior):
                if isinstance(comp, UniformPrior):
                    draws[:, j] = rng.uniform(comp.lo, comp.hi, nb)
                else:
                    draws[:, j] = comp.value
            nu = nu_array(family_link, draws @ X.T, shape=shape, variance=variance)
            acc += nu.sum(axis=0)
        ew = acc / float(samples)
    else:
        raise ConfigError(
            f"method must be 'closed-form-poisson' or 'monte-carlo', got {method!r}"
        )

    if not np.all(np.isfinite(ew)):
        raise NonFiniteInput("expected weights are not finite; check the prior support")
    for i, v in enumerate(ew):
        if v < WEIGHT_FLOOR:
            raise NonPositiveWeight(
                f"expected weight for row {i} is not positive ({v:.6g})", index=i
            )
    return ew


def ew_optimize(X, ew, p0=None, opts: LiftOneOptions | None = None) -> LiftOneResult:
    """Lift-one on the surrogate problem |X' E(W) X|; same contract as
    ``lift_one_optimize`` with the expected weights in place of w."""
    return lift_one_optimize(X, ew, p0=p0, opts=opts)
