"""Binary-response weights against a 400-digit mpmath oracle.

``weights.nu_array`` is the one weight table behind ``compute_weights``,
``nu_eval`` and Monte Carlo expected weights, so its tails matter
everywhere.  Each eta is taken as the exact double it is, the oracle
evaluates the textbook formula at 400 significant digits (enough to
resolve 1 - e^-u down to u = e^-745 and up to e^-u = 1e-324), and the
vectorized weight must match to 1e-12 relative wherever the weight is a
usable one (>= 1e-300).  Below that floor only the verdict has to agree.
"""

import warnings

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

import glmdopt as g  # noqa: E402
from glmdopt.weights import WEIGHT_FLOOR, nu_array  # noqa: E402

mp = mpmath.mp

# steps of 1/4 over the range that matters and 5/2 out to where e^eta
# underflows and overflows
ETA = np.unique(np.concatenate([np.linspace(-40.0, 40.0, 321), np.linspace(-745.0, 745.0, 597)]))


def oracle(family_link, x):
    eta = mp.mpf(float(x))
    if family_link == "binary-logit":
        nu = 1 / (2 + mp.exp(eta) + mp.exp(-eta))
    elif family_link == "binary-probit":
        tail = mp.erfc(abs(eta) / mp.sqrt(2)) / 2  # min(Phi(eta), 1 - Phi(eta))
        nu = mp.npdf(eta) ** 2 / (tail * (1 - tail))
    elif family_link == "binary-cloglog":
        u = mp.exp(eta)
        nu = (mp.exp(u) - 1) * mp.log(1 - mp.exp(-u)) ** 2
    else:
        u = mp.exp(eta)
        nu = mp.exp(2 * eta - u) / (1 - mp.exp(-u))
    return nu


@pytest.mark.parametrize(
    "family_link", ["binary-logit", "binary-probit", "binary-cloglog", "binary-loglog"]
)
def test_nu_array_matches_400_digit_oracle(family_link):
    with mp.workdps(400):
        exact = [oracle(family_link, x) for x in ETA]
    got = nu_array(family_link, ETA)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)

    usable = np.array([nu >= WEIGHT_FLOOR for nu in exact])
    np.testing.assert_array_equal(got >= WEIGHT_FLOOR, usable)
    with mp.workdps(400):
        rel = np.array([
            float(abs(mp.mpf(float(w)) - nu) / nu) if ok else 0.0
            for w, nu, ok in zip(got, exact, usable)
        ])
    worst = int(np.argmax(rel))
    assert rel[worst] <= 1e-12, f"relative error {rel[worst]:.3g} at eta = {ETA[worst]!r}"


def test_loglog_weight_survives_the_far_lower_tail():
    # u*u underflowed before the division for eta in about (-690, -372),
    # so this usable weight of 7.1e-218 read as 0 and was rejected
    with mp.workdps(400):
        exact = float(oracle("binary-loglog", -500.0))
    w = g.compute_weights([[1.0]], g.GlmModel("binary-loglog", [-500.0]))
    assert w[0] == pytest.approx(exact, rel=1e-12)
    assert 7e-218 < w[0] < 7.2e-218


@pytest.mark.parametrize(
    "family_link", ["binary-logit", "binary-probit", "binary-cloglog", "binary-loglog"]
)
def test_far_eta_gives_zero_not_nan(family_link):
    # probit read NaN once eta^2 overflowed (|eta| > 1.3e154)
    eta = np.array([-1e300, -1e160, -1e6, -800.0, 800.0, 1e6, 1e160, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nu_array(family_link, eta)
    assert np.all(got == 0.0)
