"""GLM information weights: closed forms, tail stability, domain checks."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

import glmdopt as g
from conftest import logit_2x3, matrix_2x2, matrix_2x4

# nu(eta) for the logistic 2x3 scenario, frozen from a 40-digit decimal
# evaluation of 1/(2 + e^eta + e^-eta) at eta = X beta
W_LOGIT_2X3 = np.array(
    [0.14443106686442975, 0.06718088957969558, 0.04726279097654228,
     0.11741145286745033, 0.051691270763470416, 0.03593359082532813]
)


def model(fam, beta, **kw):
    return g.GlmModel(fam, np.asarray(beta, dtype=float), **kw)


def test_family_links_roster():
    assert g.FAMILY_LINKS == (
        "binary-logit", "binary-probit", "binary-cloglog", "binary-loglog",
        "poisson-log", "gamma-inverse", "normal-identity",
    )


def test_logit_known_values():
    m = model("binary-logit", [1.0])
    assert nu(m, 0.0) == pytest.approx(0.25, rel=1e-15)
    assert nu(m, -1.55) == pytest.approx(0.14443106686442975, rel=1e-13)


def nu(m, eta):
    return g.nu_eval(m, eta)


def test_logit_matches_naive_form(rng):
    m = model("binary-logit", [1.0])
    for eta in rng.uniform(-25.0, 25.0, 200):
        naive = math.exp(eta) / (1.0 + math.exp(eta)) ** 2
        assert nu(m, eta) == pytest.approx(naive, rel=1e-12)


def test_logit_symmetric_and_tail_safe():
    m = model("binary-logit", [1.0])
    for eta in (0.3, 2.0, 17.5, 300.0):
        assert nu(m, eta) == nu(m, -eta)
    # far tails underflow cleanly to zero rather than overflowing
    assert nu(m, 800.0) == 0.0
    assert nu(m, -800.0) == 0.0


def test_probit_known_value_and_naive_form(rng):
    m = model("binary-probit", [1.0])
    assert nu(m, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-14)
    for eta in rng.uniform(-7.0, 7.0, 200):
        phi2 = math.exp(-eta * eta) / (2.0 * math.pi)
        naive = phi2 / (ndtr(eta) * ndtr(-eta))
        assert nu(m, eta) == pytest.approx(naive, rel=1e-10)


def test_probit_tails_finite_and_symmetric():
    m = model("binary-probit", [1.0])
    for eta in (5.0, 10.0, 30.0, 100.0):
        v = nu(m, eta)
        assert math.isfinite(v) and v >= 0.0
        assert nu(m, -eta) == pytest.approx(v, rel=1e-12)
    # the tail decays like eta * phi(eta): underflows cleanly, never overflows
    assert math.isfinite(nu(m, 3000.0))


def test_cloglog_known_values():
    m = model("binary-cloglog", [1.0])
    want0 = math.expm1(1.0) * math.log(-math.expm1(-1.0)) ** 2
    assert nu(m, 0.0) == pytest.approx(want0, rel=1e-14)
    # this form is asymmetric: the left tail dominates nu(0)
    assert nu(m, -1.0) > nu(m, 0.0)


def test_cloglog_tail_branches_agree():
    m = model("binary-cloglog", [1.0])
    # across the u = e^eta >= 30 switch the two branches must agree closely
    lo, hi = math.log(30.0) - 1e-9, math.log(30.0) + 1e-9
    assert nu(m, lo) == pytest.approx(nu(m, hi), rel=1e-6)
    assert nu(m, math.log(40.0)) == pytest.approx(math.exp(-40.0), rel=1e-12)
    assert nu(m, 10.0) == 0.0  # u = e^10 > 745: underflows to zero
    assert nu(m, -700.0) >= 0.0


def test_loglog_known_values_and_tails():
    m = model("binary-loglog", [1.0])
    assert nu(m, 0.0) == pytest.approx(1.0 / math.expm1(1.0), rel=1e-14)
    # interior maximum near eta = 0.47: strictly above nu(0)
    assert nu(m, 0.4665) > nu(m, 0.0)
    lo, hi = math.log(700.0) - 1e-9, math.log(700.0) + 1e-9
    assert nu(m, lo) == pytest.approx(nu(m, hi), rel=1e-6)
    eta = math.log(700.5)
    assert nu(m, eta) == pytest.approx(math.exp(2.0 * eta - 700.5), rel=1e-8)
    assert nu(m, 8.0) == 0.0  # exp(16 - e^8) is below the smallest double
    assert nu(m, 800.0) == 0.0


def test_poisson_gamma_normal_forms(rng):
    mp = model("poisson-log", [1.0])
    mg = model("gamma-inverse", [1.0], shape=1.0 / 55.0)
    mn = model("normal-identity", [1.0], variance=4.0)
    for eta in rng.uniform(-3.0, 3.0, 50):
        assert nu(mp, eta) == pytest.approx(math.exp(eta), rel=1e-15)
        if eta != 0.0:
            assert nu(mg, eta) == pytest.approx((1.0 / 55.0) / eta**2, rel=1e-15)
        assert nu(mn, eta) == 0.25


def test_gamma_eta_zero_raises():
    mg = model("gamma-inverse", [1.0], shape=2.0)
    with pytest.raises(g.GammaZeroEta):
        nu(mg, 0.0)


def test_nu_eval_rejects_non_finite():
    m = model("binary-logit", [1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(g.NonFiniteInput):
            nu(m, bad)


def test_glm_model_validation():
    with pytest.raises(g.ConfigError):
        model("binary-logistic", [1.0])  # not a known family_link
    with pytest.raises(g.NonFiniteInput):
        model("binary-logit", [1.0, math.nan])
    with pytest.raises(g.NonFiniteInput):
        model("gamma-inverse", [1.0])  # shape missing
    with pytest.raises(g.NonFiniteInput):
        model("gamma-inverse", [1.0], shape=-2.0)
    with pytest.raises(g.NonFiniteInput):
        model("normal-identity", [1.0])  # variance missing
    m = model("binary-logit", [0.5, 1.0])
    assert m.d == 2


def test_compute_weights_logistic_scenario():
    X, _, w = logit_2x3()
    np.testing.assert_allclose(w, W_LOGIT_2X3, rtol=1e-9)
    assert np.all(w > 0)


def test_compute_weights_poisson_is_exp_eta():
    X = matrix_2x2()
    beta = np.array([5.5, -0.18, -0.22])
    w = g.compute_weights(X, model("poisson-log", beta))
    np.testing.assert_allclose(w, np.exp(X @ beta), rtol=1e-15)


def test_binary_symmetric_links_peak_at_zero(rng):
    # logit and probit weights never exceed nu(0); cloglog/loglog are
    # asymmetric and intentionally excluded from this bound
    for fam, peak in (("binary-logit", 0.25), ("binary-probit", 2.0 / math.pi)):
        m = model(fam, [1.0])
        for eta in rng.uniform(-20.0, 20.0, 300):
            assert nu(m, eta) <= peak * (1.0 + 1e-12)


def test_compute_weights_gamma_sign_consistency():
    # all-negative linear predictors are a valid gamma configuration
    X = matrix_2x4()
    mg = model("gamma-inverse", [-1.0, -0.75, -0.05, -0.25, -0.05], shape=1.0 / 55.0)
    w = g.compute_weights(X, mg)
    assert np.all(w > 0)

    # flipping one row's predictor sign must name the offending row
    mg_mixed = model("gamma-inverse", [0.1, 1.0], shape=1.0)
    X2 = np.array([[1.0, 1.0], [1.0, -1.0]])  # eta = (1.1, -0.9): mixed signs
    with pytest.raises(g.NonPositiveWeight) as exc:
        g.compute_weights(X2, mg_mixed)
    assert exc.value.index == 1

    mg_zero = model("gamma-inverse", [1.0, 1.0], shape=1.0)
    X3 = np.array([[1.0, -1.0], [1.0, 1.0]])  # eta_0 = 0
    with pytest.raises(g.NonPositiveWeight):
        g.compute_weights(X3, mg_zero)


def test_compute_weights_rejects_underflowed_rows():
    X = np.array([[1.0, 0.0], [1.0, 900.0]])
    m = model("binary-logit", [0.0, 1.0])  # eta = (0, 900): weight underflows
    with pytest.raises(g.NonPositiveWeight) as exc:
        g.compute_weights(X, m)
    assert exc.value.index == 1


def test_compute_weights_dimension_and_finite_checks():
    m = model("binary-logit", [1.0, 1.0])
    with pytest.raises(g.DimensionMismatch):
        with pytest.warns(UserWarning, match="duplicate rows"):
            g.compute_weights(np.ones((3, 3)), m)
    with pytest.raises(g.DimensionMismatch):
        g.compute_weights(np.ones(3), m)
    with pytest.raises(g.NonFiniteInput):
        g.compute_weights(np.array([[1.0, np.inf], [1.0, 0.0]]), m)
