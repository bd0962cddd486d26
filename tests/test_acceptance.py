"""Acceptance checks: published allocations, exact identities, invariances.

Each check prints one visible 'criterion NN: PASS/FAIL' line before its
assertions, so the printed report pinpoints which reference value or
identity broke even under a bare pytest run.
"""

import itertools
import time

import numpy as np
import pytest

import glmdopt as g
from conftest import (
    FACTORIAL_2X3_RULES,
    TWO_BY_THREE_LEVEL_RULES,
    gamma_2x4,
    uniform_box_prior,
    logit_2x3,
    matrix_2x3,
    matrix_2x3_dummy,
    matrix_2x4,
    matrix_two_by_three_level,
    poisson_2x2,
    random_problem,
)
from oracles import lift_allocation, lift_profile, objective_expansion

# Published reference values the suite reproduces

P_LOGIT = np.array([0.216, 0.186, 0.198, 0.206, 0.115, 0.080])
N_LOGIT = np.array([621, 535, 569, 593, 331, 231])
P_POISSON_A = np.array([0.18, 0.27, 0.26, 0.29])       # beta (5.5, -0.18, -0.22)
P_POISSON_B = np.array([0.213, 0.313, 0.163, 0.311])   # beta (-0.91, 0.04, -0.69)
EW_UNIFORM_BOX = np.array([0.24, 3.35, 9.18, 1.75, 24.76, 67.86])
P_UNIFORM_BOX = np.array([0.0, 0.0, 0.25, 0.25, 0.25, 0.25])
P_GAMMA = np.array([0.2, 0.0, 0.0, 0.0, 0.2, 0.2, 0.2, 0.2])


@pytest.fixture
def announce(capsys):
    def _say(label, ok, detail=""):
        tail = f"  ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\n{label}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)

    return _say


def test_criterion_01_logistic_approximate_design(announce):
    X, model, w = logit_2x3()
    t0 = time.perf_counter()
    res = g.lift_one_optimize(X, w)
    dt = time.perf_counter() - t0
    dev = float(np.max(np.abs(res.p_opt - P_LOGIT)))
    ok = res.converged and dev < 5e-4 and dt < 1.0
    announce("criterion 01", ok, f"max dev {dev:.2e}, {dt * 1e3:.0f} ms")
    assert res.converged
    assert dev < 5e-4
    assert dt < 1.0


def test_criterion_02_logistic_exact_design(announce):
    X, model, w = logit_2x3()
    t0 = time.perf_counter()
    n = g.optimize_exact(X, w, 2880)
    dt = time.perf_counter() - t0
    f_n = g.objective(X, w, n)
    f_ref = g.objective(X, w, N_LOGIT)
    match = bool(np.array_equal(n, N_LOGIT))
    ok = f_n >= f_ref * (1.0 - 1e-9) and match and dt < 5.0
    announce("criterion 02", ok, f"n match {match}, {dt * 1e3:.0f} ms")
    assert f_n >= f_ref * (1.0 - 1e-9)
    assert match
    assert dt < 5.0


def test_criterion_03_poisson_approximate_designs(announce):
    devs = []
    for beta, target, tol in (
        ([5.5, -0.18, -0.22], P_POISSON_A, 5e-3),
        ([-0.91, 0.04, -0.69], P_POISSON_B, 5e-4),
    ):
        X, model, w = poisson_2x2(beta)
        res = g.lift_one_optimize(X, w)
        dev = float(np.max(np.abs(res.p_opt - target)))
        devs.append((res.converged, dev, tol))
    ok = all(c and dev < tol for c, dev, tol in devs)
    announce(
        "criterion 03", ok,
        "devs " + ", ".join(f"{dev:.2e} (tol {tol:g})" for _, dev, tol in devs),
    )
    for converged, dev, tol in devs:
        assert converged
        assert dev < tol


def test_criterion_04a_expected_weights_closed_form(announce):
    ew = g.expected_weights(matrix_2x3_dummy(), "poisson-log", uniform_box_prior())
    dev = float(np.max(np.abs(ew - EW_UNIFORM_BOX)))
    ok = dev < 0.01
    announce("criterion 04a", ok, f"max dev {dev:.4f}")
    assert dev < 0.01


def test_criterion_04b_expected_weight_design(announce):
    X = matrix_2x3_dummy()
    ew = g.expected_weights(X, "poisson-log", uniform_box_prior())
    res = g.ew_optimize(X, ew)
    dev = float(np.max(np.abs(res.p_opt - P_UNIFORM_BOX)))
    ok = res.converged and dev < 5e-4
    announce("criterion 04b", ok, f"max dev {dev:.2e}")
    assert res.converged
    assert dev < 5e-4


def prior_log_efficiency(X, family_link, prior, p_test, p_ref):
    """E_prior[log eff_beta(p_test, p_ref)] by a tensor Gauss-Legendre rule.

    eff_beta is the local d-th-root efficiency at the true weights w(beta).
    The rule is deterministic; at 8 nodes per axis it agrees with 16 nodes
    to 1e-10 on the uniform-box scenario.
    """
    t, wt = np.polynomial.legendre.leggauss(8)
    grids = [0.5 * (c.lo + c.hi) + 0.5 * (c.hi - c.lo) * t for c in prior]
    total = 0.0
    for idx in itertools.product(range(len(t)), repeat=len(grids)):
        beta = np.array([grid[i] for grid, i in zip(grids, idx)])
        w = g.compute_weights(X, g.GlmModel(family_link, beta))
        weight = np.prod(0.5 * wt[list(idx)])
        total += weight * np.log(g.relative_efficiency(X, w, p_test, p_ref))
    return total


def test_criterion_04c_expected_weight_uniform_efficiency(announce):
    # The published 0.84 is the uniform design's efficiency relative to the
    # expected-weight optimum under the Bayesian D-criterion E_beta[log|M|]
    # (Chaloner & Verdinelli, Stat. Sci. 1995): exp(E_prior[log eff_beta])
    # with the same d-th root (d = 4) that criteria 05 and 06 use.  It is not
    # relative_efficiency at the surrogate expected weights, which is a
    # local efficiency (0.7714).  An m-th root of that surrogate ratio lands
    # near 0.84 too (0.8411), but the m-th root would move criteria 05 and 06
    # off their published values (0.888 vs 0.827, 0.836 vs 0.787).  PAPER.md
    # does not define the quantity; this reading rests on that d-th-root
    # convention and on the match to four decimals.
    X = matrix_2x3_dummy()
    prior = uniform_box_prior()
    ew = g.expected_weights(X, "poisson-log", prior)
    res = g.ew_optimize(X, ew)
    uniform = np.full(6, 1 / 6)
    local = g.relative_efficiency(X, ew, uniform, res.p_opt)
    eff = float(np.exp(prior_log_efficiency(X, "poisson-log", prior, uniform, res.p_opt)))
    ok = abs(eff - 0.84) <= 0.01
    announce(
        "criterion 04c", ok,
        f"prior-averaged D-efficiency {eff:.4f}, target 0.84 +- 0.01; "
        f"local efficiency at expected weights {local:.4f}",
    )
    assert ok, (
        f"prior-averaged D-efficiency exp(E[log eff]) = {eff:.6f} misses "
        f"0.84 +- 0.01 (d-th root, d = 4; local efficiency at the expected "
        f"weights is {local:.4f})"
    )


def test_criterion_05_gamma_design_and_efficiency(announce):
    X, model, w = gamma_2x4()
    res = g.lift_one_optimize(X, w)
    dev = float(np.max(np.abs(res.p_opt - P_GAMMA)))
    eff = g.relative_efficiency(X, w, np.full(8, 1 / 8), res.p_opt)
    ok = res.converged and dev < 5e-4 and abs(eff - 0.827) <= 0.005
    announce("criterion 05", ok, f"max dev {dev:.2e}, uniform efficiency {eff:.4f}")
    assert res.converged
    assert dev < 5e-4
    assert abs(eff - 0.827) <= 0.005


def test_criterion_06_intro_uniform_efficiency(announce):
    X, model, w = poisson_2x2([1.0, 1.0, -2.0])
    res = g.lift_one_optimize(X, w)
    eff = g.relative_efficiency(X, w, np.full(4, 0.25), res.p_opt)
    ok = res.converged and abs(eff - 0.787) <= 0.005
    announce("criterion 06", ok, f"uniform efficiency {eff:.4f}")
    assert res.converged
    assert abs(eff - 0.787) <= 0.005


def test_criterion_07_objective_equals_subset_expansion(announce):
    rng = np.random.default_rng(701)
    worst = 0.0
    for _ in range(500):
        X, w = random_problem(rng, m_max=12, d_max=5)
        p = rng.dirichlet(np.ones(X.shape[0]))
        a = g.objective(X, w, p)
        b = objective_expansion(X, w, p)
        worst = max(worst, abs(a - b) / max(a, b))
    ok = worst < 1e-9
    announce("criterion 07", ok, f"worst rel dev {worst:.2e} over 500 instances")
    assert worst < 1e-9


def _well_conditioned(X, w, q):
    # direct determinant evaluation is only trustworthy to ~cond * eps,
    # so identity checks are confined to well-posed instances
    info = X.T @ (X * (np.asarray(q, float) * w)[:, None])
    return np.linalg.cond(info) <= 1e6


def test_criterion_08_profile_identities_and_integer_argmax(announce):
    # reconstruction errors are measured relative to each profile's peak:
    # determinant evaluation carries absolute error proportional to its
    # scale, and rank-critical grid points are exact zeros
    worst_lift = 0.0
    rng = np.random.default_rng(801)
    for _ in range(200):
        X, w = random_problem(rng)
        m, d = X.shape
        p = rng.dirichlet(np.ones(m))
        if not _well_conditioned(X, w, p):
            continue
        i = int(rng.integers(m))
        prof = lift_profile(X, w, p, i)
        direct, rec = [], []
        for z in np.linspace(0.0, 0.95, 20):
            direct.append(g.objective(X, w, lift_allocation(p, i, z)))
            rec.append(prof.a * z * (1 - z) ** (d - 1) + prof.b * (1 - z) ** d)
        err = max(abs(a - b) for a, b in zip(rec, direct))
        worst_lift = max(worst_lift, err / max(direct))

    worst_pair = 0.0
    rng = np.random.default_rng(802)
    for _ in range(100):
        X, w = random_problem(rng)
        m = X.shape[0]
        n = g.round_allocation(rng.dirichlet(np.ones(m)), 40)
        if g.objective(X, w, n) <= 0:
            n = g.round_allocation(np.full(m, 1.0 / m), 40)
        i, j = sorted(rng.choice(m, size=2, replace=False).tolist())
        s = int(n[i] + n[j])
        if s == 0:
            continue
        q = n.astype(float).copy()
        q[i], q[j] = s / 2, s / 2
        if not _well_conditioned(X, w, q):
            continue
        prof = g.pair_profile(X, w, n, i, j)
        direct, quad = [], []
        for z in range(s + 1):
            q[i], q[j] = z, s - z
            direct.append(g.objective(X, w, q))
            quad.append(prof.A * z * (s - z) + prof.B * z + prof.C * (s - z) + prof.D)
        err = max(abs(a - b) for a, b in zip(quad, direct))
        worst_pair = max(worst_pair, err / max(direct))

    rng = np.random.default_rng(803)
    argmax_ok = True
    for k in range(1000):
        s = int(rng.integers(1, 51))
        prof = g.PairProfile(
            A=float(rng.uniform(1e-3, 2.0)),
            B=float(rng.uniform(0.0, 2.0)),
            C=float(rng.uniform(0.0, 2.0)),
            D=float(rng.uniform(0.0, 2.0)),
            s=s,
        )
        current = int(rng.integers(0, s + 1)) if k % 2 else None
        z_star, val = g.maximize_pair(prof, current=current)
        grid = [
            prof.A * z * (s - z) + prof.B * z + prof.C * (s - z) + prof.D
            for z in range(s + 1)
        ]
        best = max(grid)
        # the enumerated values differ from maximize_pair's by ulps (the
        # quadratic is evaluated in a different arrangement); an off-by-one
        # integer choice would lose ~A, twelve decades more
        tol = 1e-12 * max(1.0, best)
        argmax_ok = argmax_ok and abs(val - best) <= tol and grid[z_star] >= best - tol

    ok = worst_lift < 1e-9 and worst_pair < 1e-9 and argmax_ok
    announce(
        "criterion 08", ok,
        f"lift rel {worst_lift:.2e}, pair rel {worst_pair:.2e}, "
        f"argmax exact {argmax_ok}",
    )
    assert worst_lift < 1e-9
    assert worst_pair < 1e-9
    assert argmax_ok


def test_criterion_09_certification_closure(announce):
    scenarios = [
        logit_2x3()[::2],
        poisson_2x2([5.5, -0.18, -0.22])[::2],
        poisson_2x2([-0.91, 0.04, -0.69])[::2],
        gamma_2x4()[::2],
        (
            matrix_2x3_dummy(),
            g.expected_weights(matrix_2x3_dummy(), "poisson-log", uniform_box_prior()),
        ),
    ]
    rng = np.random.default_rng(901)
    for _ in range(40):
        scenarios.append(random_problem(rng))

    converged = 0
    closure = True
    for X, w in scenarios:
        res = g.lift_one_optimize(X, w)
        if res.converged:
            converged += 1
            closure = closure and g.verify_optimal(X, w, res.p_opt).optimal
    coverage_ok = converged >= 5 + 30  # all five scenarios plus most random draws

    rules_ok = True
    rng = np.random.default_rng(902)
    for matrix, rules in (
        (matrix_two_by_three_level, TWO_BY_THREE_LEVEL_RULES),
        (matrix_2x3, FACTORIAL_2X3_RULES),
    ):
        X = matrix()
        for support, conds in rules.items():
            for _ in range(100):
                v = rng.uniform(0.2, 5.0, X.shape[0])
                verdict, _details = g.check_saturated(X, 1.0 / v, support)
                rules_ok = rules_ok and verdict == all(c(v) for _, c in conds)

    ok = closure and coverage_ok and rules_ok
    announce(
        "criterion 09", ok,
        f"{converged}/{len(scenarios)} converged, all certified {closure}, "
        f"saturated rules agree {rules_ok}",
    )
    assert closure
    assert coverage_ok
    assert rules_ok


def test_criterion_10_weight_scaling_invariance(announce):
    scenarios = [logit_2x3()[::2], gamma_2x4()[::2], poisson_2x2([-0.91, 0.04, -0.69])[::2]]
    rng = np.random.default_rng(1001)
    for _ in range(2):
        scenarios.append(random_problem(rng))

    worst_dp, worst_df = 0.0, 0.0
    deterministic = True
    for X, w in scenarios:
        d = X.shape[1]
        opts = g.LiftOneOptions(seed=5)
        res = g.lift_one_optimize(X, w, opts=opts)
        res10 = g.lift_one_optimize(X, 10.0 * w, opts=opts)
        again = g.lift_one_optimize(X, w, opts=opts)
        deterministic = deterministic and bool(np.array_equal(res.p_opt, again.p_opt))
        worst_dp = max(worst_dp, float(np.max(np.abs(res10.p_opt - res.p_opt))))
        worst_df = max(worst_df, abs(res10.f_opt / (10.0**d * res.f_opt) - 1.0))

    # 10 * w rounds per entry, so the scaled run is a slightly different
    # problem; identity holds to certification resolution while f scaling
    # is tight
    ok = deterministic and worst_dp <= 1e-7 and worst_df <= 1e-9
    announce(
        "criterion 10", ok,
        f"same-seed identical {deterministic}, max |dp| {worst_dp:.2e}, "
        f"f-scaling rel {worst_df:.2e}",
    )
    assert deterministic
    assert worst_dp <= 1e-7
    assert worst_df <= 1e-9


def test_sanity_wide_factorial_runtime(announce):
    levels = np.array(list(itertools.product([-1.0, 1.0], repeat=7)))
    X = np.column_stack([np.ones(128), levels])
    rng = np.random.default_rng(128128)
    beta = rng.uniform(-3.0, 3.0, 8)
    w = g.compute_weights(X, g.GlmModel("binary-logit", beta))
    t0 = time.perf_counter()
    res = g.lift_one_optimize(X, w, opts=g.LiftOneOptions(seed=0, max_rounds=20000))
    dt = time.perf_counter() - t0
    ok = res.converged and dt < 30.0
    announce("sanity m=128", ok, f"{dt:.1f} s, {res.rounds} rounds")
    assert res.converged
    assert dt < 30.0
