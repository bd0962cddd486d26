"""GLM information weights.

Each design point x contributes Fisher information proportional to
nu(eta) with eta = x'beta, where nu depends on the response family and
link.  The weight functions here are the closed forms for the supported
single-parameter exponential-family models:

=================  =====================================
family_link        nu(eta)
=================  =====================================
binary-logit       1 / (2 + e^eta + e^-eta)
binary-probit      phi(eta)^2 / (Phi(eta)(1 - Phi(eta)))
binary-cloglog     (exp(e^eta) - 1) * log(1 - exp(-e^eta))^2
binary-loglog      exp(2*eta - e^eta) / (1 - exp(-e^eta))
poisson-log        e^eta
gamma-inverse      k / eta^2
normal-identity    1 / sigma^2
=================  =====================================

``_nu_into`` evaluates each of these in place on whole arrays, with no
per-element branches: it is the one table, run by ``nu_array`` on a copy of
eta and by Monte Carlo expected weights on about 10^6 draws per row.
The four binary links stay within 1e-12 relative of a 400-digit
evaluation wherever the weight is at least ``WEIGHT_FLOOR`` (eta in
[-745, 745]; ``tests/test_nu_accuracy.py``).  Probit takes its tail from
a rational fit of the Mills ratio, so every family is plain numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    GammaZeroEta,
    NonFiniteInput,
    NonPositiveWeight,
)
from .objective import design_matrix

FAMILY_LINKS = (
    "binary-logit",
    "binary-probit",
    "binary-cloglog",
    "binary-loglog",
    "poisson-log",
    "gamma-inverse",
    "normal-identity",
)

# Weights below this are indistinguishable from zero for the optimality
# conditions (ratios of objective values) and are rejected outright.
WEIGHT_FLOOR = 1e-300

_LN2 = math.log(2.0)
_TINY = 5e-324  # smallest positive double
# Both extreme-value links have weights of order e^(2 eta) exp(-e^eta),
# which are 0 in double precision from eta = 6.7 on; clipping eta at 7
# keeps e^eta and e^(e^eta / 2) finite.
_ETA_NU_ZERO = 7.0
# Probit weights, about |eta| phi(eta), are 0 from |eta| = 39 on; clipping
# at 40 keeps eta^2 finite.
_PROBIT_ETA_ZERO = 40.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# The Mills ratio R(t) = Phi(-t) / phi(t) as P(t) / Q(t), constant terms first:
# a least-squares fit at 400 Chebyshev nodes on [0, 40], within 4.1e-15
# relative there.  All are positive, so Horner's rule is stable for t >= 0.
_MILLS_P = (1.2533141373155052, 1.810722629040936, 1.2896404862112578,
            0.5769998670087072, 0.17563257040397298, 0.03713845332512359,
            0.005340937776428668, 0.00048155064377666026, 2.1215831454947992e-05)
_MILLS_Q = (1.0, 2.242632190411651, 2.318345833206097, 1.4547970576267106,
            0.6131755768832132, 0.18093106132729894, 0.03762000442866127,
            0.005362153598609102, 0.00048155064388731816, 2.1215831454362218e-05)


@dataclass(frozen=True)
class GlmModel:
    """A response family/link plus regression coefficients.

    Parameters
    ----------
    family_link : str
        One of ``FAMILY_LINKS``.
    beta : array_like
        Coefficient vector of length d (one entry per design column).
    shape : float, optional
        Shape parameter k > 0; required for ``gamma-inverse``.
    variance : float, optional
        Response variance sigma^2 > 0; required for ``normal-identity``.
    """

    family_link: str
    beta: np.ndarray
    shape: float | None = None
    variance: float | None = None
    d: int = field(init=False)

    def __post_init__(self):
        if self.family_link not in FAMILY_LINKS:
            raise ConfigError(
                f"unknown family_link {self.family_link!r}; "
                f"expected one of {', '.join(FAMILY_LINKS)}"
            )
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size == 0:
            raise DimensionMismatch("beta must be a one-dimensional vector")
        if not np.all(np.isfinite(beta)):
            raise NonFiniteInput("beta contains non-finite entries")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "d", beta.size)
        if self.family_link == "gamma-inverse":
            if self.shape is None or not (0 < self.shape < math.inf):
                raise NonFiniteInput("gamma-inverse requires shape 0 < k < inf")
        if self.family_link == "normal-identity":
            if self.variance is None or not (0 < self.variance < math.inf):
                raise NonFiniteInput("normal-identity requires variance 0 < sigma^2 < inf")


def _horner(coeffs, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients (constant term first) at t, in out."""
    out.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= t
        out += c
    return out


def _nu_into(family_link: str, eta, a, b, c, shape=None, variance=None) -> np.ndarray:
    """Overwrite the float array eta with nu(eta) and return it, using only
    the scratch arrays a, b and c of its shape (c for cloglog's two logs)."""
    if family_link == "binary-logit":
        # 1/(2 + e^eta + e^-eta) with the large exponential factored out
        t = np.exp(np.negative(np.abs(eta, out=eta), out=eta), out=eta)
        s = np.add(t, 1.0, out=a)
        return np.divide(t, np.square(s, out=s), out=t)
    if family_link == "binary-probit":
        # phi^2 / (Phi (1 - Phi)) = phi / (R (1 - phi R)) at t = |eta|, where
        # phi R = Phi(-t) is the smaller tail.
        t = np.minimum(np.abs(eta, out=eta), _PROBIT_ETA_ZERO, out=eta)
        r = _horner(_MILLS_P, t, a)
        r /= _horner(_MILLS_Q, t, b)
        phi = np.multiply(np.multiply(t, -0.5, out=b), t, out=b)
        with np.errstate(under="ignore"):
            phi = np.divide(np.exp(phi, out=phi), _SQRT_2PI, out=phi)
            rest = np.subtract(1.0, np.multiply(phi, r, out=eta), out=eta)
            return np.divide(phi, np.multiply(rest, r, out=rest), out=rest)
    if family_link == "binary-cloglog":
        # expm1(u) * L^2 with u = e^eta and L = log(1 - e^-u), computed as
        # (1 - e^-u) * (L / h)^2 with h = e^(-u/2), so that no factor
        # overflows before eta reaches _ETA_NU_ZERO.  L is split at u = ln 2:
        # log1p(-h * h) above, log(1 - e^-u) below.  The _TINY floor only
        # keeps the log finite where u has underflowed to 0, and there the
        # leading factor 1 - e^-u is 0.
        with np.errstate(under="ignore", divide="ignore"):
            u = np.exp(np.minimum(eta, _ETA_NU_ZERO, out=eta), out=eta)
            above = u > _LN2
            h = np.exp(np.multiply(u, -0.5, out=a), out=a)
            v = np.negative(np.expm1(np.negative(u, out=eta), out=eta), out=eta)
            log_v = np.log(np.maximum(v, _TINY, out=b), out=b)
            upper = np.negative(np.multiply(h, h, out=c), out=c)
            np.copyto(log_v, np.log1p(upper, out=upper), where=above)
            log_v /= h
            return np.multiply(v, np.square(log_v, out=log_v), out=v)
    if family_link == "binary-loglog":
        # u^2 / expm1(u) as (u / expm1(u)) * u with u = e^eta: u * u would
        # underflow for eta below about -372, where the weight is still
        # usable.  The ratio is taken at u >= _TINY, so it is 1 rather than
        # 0/0 where u has underflowed, and eta is clipped so that u stays
        # finite; where expm1(u) overflows the weight is below the floor.
        with np.errstate(under="ignore", over="ignore"):
            u = np.exp(np.minimum(eta, _ETA_NU_ZERO, out=eta), out=eta)
            ratio_at = np.maximum(u, _TINY, out=a)
            ratio_at /= np.expm1(ratio_at, out=b)
            return np.multiply(ratio_at, u, out=u)
    if family_link == "poisson-log":
        with np.errstate(over="ignore"):  # callers report an infinite weight
            return np.exp(eta, out=eta)
    if family_link == "gamma-inverse":
        if shape is None or not (0 < shape < math.inf):
            raise ConfigError("gamma-inverse weights need shape 0 < k < inf")
        with np.errstate(divide="ignore"):
            return np.divide(shape, np.multiply(eta, eta, out=eta), out=eta)
    if family_link == "normal-identity":
        if variance is None or not (0 < variance < math.inf):
            raise ConfigError("normal-identity weights need variance 0 < sigma^2 < inf")
        eta.fill(1.0 / variance)
        return eta
    raise ConfigError(f"unknown family_link {family_link!r}")


def nu_array(family_link: str, eta, shape=None, variance=None) -> np.ndarray:
    """Vectorized, tail-safe nu(eta) on a copy of eta: tiny weights are exact
    zeros, and inf comes only from gamma-inverse at 0 and poisson-log > 709.78."""
    eta = np.array(eta, dtype=float)
    return _nu_into(family_link, eta, *(np.empty_like(eta) for _ in range(3)), shape, variance)


def nu_eval(model: GlmModel, eta: float) -> float:
    """Evaluate the information weight nu(eta) for one design point.

    Raises
    ------
    NonFiniteInput
        If eta is NaN or infinite.
    GammaZeroEta
        For gamma-inverse at eta = 0, where the mean 1/eta is undefined.
    """
    eta = float(eta)
    if not math.isfinite(eta):
        raise NonFiniteInput(f"eta must be finite, got {eta}")
    if model.family_link == "gamma-inverse" and eta == 0.0:
        raise GammaZeroEta("gamma-inverse weight undefined at eta = 0")
    return float(nu_array(model.family_link, eta, model.shape, model.variance))


def compute_weights(X, model: GlmModel) -> np.ndarray:
    """Per-row weights w_i = nu(x_i'beta) for a design matrix.

    X is validated by ``design_matrix`` (two-dimensional, finite,
    m >= d; duplicate rows warn) and must have one column per entry of
    beta.

    For ``gamma-inverse`` the linear predictors must all share one strict
    sign (the mean 1/eta must stay positive under a fixed sign convention);
    a zero eta or mixed signs raise ``NonPositiveWeight`` with the row
    index that breaks the pattern.

    Returns
    -------
    numpy.ndarray
        Strictly positive weight vector of length m.
    """
    X = design_matrix(X)
    if X.shape[1] != model.d:
        raise DimensionMismatch(
            f"design matrix has {X.shape[1]} columns but beta has length {model.d}"
        )
    eta = X @ model.beta

    if model.family_link == "gamma-inverse":
        if np.any(eta == 0.0):
            i = int(np.argmax(eta == 0.0))
            raise NonPositiveWeight(f"row {i}: eta = 0 gives an undefined gamma mean", index=i)
        flipped = np.signbit(eta) != np.signbit(eta[0])
        if flipped.any():
            i = int(np.argmax(flipped))
            raise NonPositiveWeight(
                f"row {i}: eta = {eta[i]:.6g} flips sign against the other rows; "
                "gamma-inverse means must keep one sign",
                index=i,
            )

    w = nu_array(model.family_link, eta, model.shape, model.variance)
    unusable = ~(np.isfinite(w) & (w >= WEIGHT_FLOOR))
    if unusable.any():
        i = int(np.argmax(unusable))
        problem = ("overflows the double range" if w[i] == math.inf
                   else f"is below the usable floor {WEIGHT_FLOOR:g}")
        raise NonPositiveWeight(f"row {i}: weight {w[i]:.3g} at eta = {eta[i]:.6g} {problem}",
                                index=i)
    return w
