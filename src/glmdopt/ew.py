"""Expected-weight (EW) designs under independent priors on beta.

Instead of fixing beta, average the information weight of each design
point over a prior: ew_i = E[nu(x_i' beta)].  Maximizing |X' E(W) X| is
then an ordinary weighted design problem, so the lift-one machinery and
the optimality certificate apply unchanged with the surrogate weights.

For poisson-log the expectation separates into a product of univariate
moment generating functions and is computed in closed form.  Every other
family uses Monte Carlo over a fixed set of 32 sub-streams spawned from
the seed.  Each stream draws its coefficients exactly as a serial loop
would, evaluates eta and nu in row chunks of a few thousand draws (small
enough to stay in cache and to keep BLAS on its small-matrix path), and
sums its own weights; the 32 stream sums are then added in stream order.
The streams run on a thread pool with one worker per available CPU (numpy
releases the interpreter lock inside its loops), and since no sum crosses
a stream boundary the estimate is bit-identical for any worker count.
The pool is imported only by the Monte Carlo branch, so ``import
glmdopt`` does not load ``concurrent.futures``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteInput, NonPositiveWeight, UnsupportedCombination
from .liftone import LiftOneOptions, LiftOneResult, lift_one_optimize
from .objective import design_matrix, is_integer
from .weights import FAMILY_LINKS, WEIGHT_FLOOR, nu_array

_MC_BLOCKS = 32
# Draws per eta/nu evaluation inside a stream: an (m x 4096) block of eta
# stays in cache, where whole-stream products were seen to take 100x
# longer under OpenBLAS threading.
_MC_CHUNK = 4096


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


def _mgf(comp, x: np.ndarray) -> np.ndarray:
    """E[e^{U x}] for one prior component, elementwise over x."""
    if isinstance(comp, PointPrior):
        return np.exp(comp.value * x)
    t = (comp.hi - comp.lo) * x
    zero = t == 0.0  # x = 0, where the limit of expm1(t) / t is 1
    t = np.where(zero, 1.0, t)
    return np.where(zero, 1.0, np.exp(comp.lo * x) * np.expm1(t) / t)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream_sum(child, nb, prior, X, family_link, shape, variance) -> np.ndarray:
    """Sum of nu(x_i' beta) over the nb draws of one sub-stream, per row."""
    rng = np.random.default_rng(child)
    draws = np.empty((len(prior), nb))
    for j, comp in enumerate(prior):
        if isinstance(comp, UniformPrior):
            draws[j] = rng.uniform(comp.lo, comp.hi, nb)
        else:
            draws[j] = comp.value
    acc = np.zeros(X.shape[0])
    for start in range(0, nb, _MC_CHUNK):
        eta = X @ draws[:, start:start + _MC_CHUNK]
        acc += nu_array(family_link, eta, shape=shape, variance=variance).sum(axis=1)
    return acc


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
        For bad priors, a missing Monte Carlo seed, or a ``samples`` that
        is not a positive integer.
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
        with np.errstate(over="ignore", invalid="ignore"):
            ew = np.ones(m)
            for j, comp in enumerate(prior):
                ew *= _mgf(comp, X[:, j])
    elif method == "monte-carlo":
        if seed is None:
            raise ConfigError("monte-carlo expected weights require an explicit seed")
        if not (is_integer(samples) and samples >= 1):
            raise ConfigError(f"samples must be a positive integer, got {samples!r}")
        from concurrent.futures import ThreadPoolExecutor

        children = np.random.SeedSequence(seed).spawn(_MC_BLOCKS)
        base, extra = divmod(int(samples), _MC_BLOCKS)
        sizes = [base + (1 if k < extra else 0) for k in range(_MC_BLOCKS)]
        streams = [(child, nb) for child, nb in zip(children, sizes) if nb > 0]
        with ThreadPoolExecutor(max_workers=min(_cpu_count(), len(streams))) as pool:
            sums = list(pool.map(
                lambda stream: _stream_sum(*stream, prior, X, family_link, shape, variance),
                streams,
            ))
        # in stream order, so that the rounding is the same for any worker count
        acc = np.zeros(m)
        for stream_sum in sums:
            acc += stream_sum
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
