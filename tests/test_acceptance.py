"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Monte Carlo criteria use frozen seeds and are deterministic.

The tilt-recovery check is implemented exactly as stated and is expected to
FAIL: with samples of 1000 the per-component Z-tests are underpowered (the
log x coefficient of the gamma pair has a true z-mean near 2.5, the log^2 x
coefficient of the lognormal pair near 1.6), capping one-pass recovery around
0.65 and 0.26 no matter how the variances are estimated. The printed line
reports the measured rates.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from drmfuse import (
    GLOBAL_TILT,
    Basis,
    Sample,
    SimConfig,
    TiltSpec,
    chi_square_beta_test,
    exp2_cdf,
    fit,
    generate,
    refine_tilts,
    run_comparison,
    sigma_t,
    threshold_probability,
    validate,
)
from drmfuse import simulation
from drmfuse._kernels import eta_matrix

from conftest import replicate_errors
from newton_oracle import hessian, profile_loglik, score

REFINED = [TiltSpec.parse("logx"), TiltSpec.parse("x,log2x")]


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


def _sig4(x):
    return f"{x:.3e}"   # 4 significant figures in scientific notation


# ---------------------------------------------------------------------------
# 1. Three-estimator benchmark reproduction
# ---------------------------------------------------------------------------

BENCHMARK_MIAE = {"uniform": 1.639e-2, "refined": 1.420e-2, "empirical": 1.910e-2}
BENCHMARK_MISE = {"uniform": 2.015e-4, "refined": 1.712e-4, "empirical": 2.410e-4}


@pytest.fixture(scope="module")
def benchmark300():
    return run_comparison(SimConfig(replications=300, sizes=(1000, 1000, 1000),
                                    grid=(0.0, 10.0, 1000), seed=2024))


def test_criterion_1_benchmark_values_and_ordering(benchmark300):
    rows = {r.estimator: r for r in benchmark300.rows}
    ok = True
    details = []
    for name, target in BENCHMARK_MIAE.items():
        rel = rows[name].miae / target - 1.0
        ok &= abs(rel) <= 0.15
        details.append(f"MIAE[{name}]={rows[name].miae:.3e} ({rel:+.1%})")
    for name, target in BENCHMARK_MISE.items():
        rel = rows[name].mise / target - 1.0
        ok &= abs(rel) <= 0.20
        details.append(f"MISE[{name}]={rows[name].mise:.3e} ({rel:+.1%})")
    order_ok = (
        rows["refined"].miae < rows["uniform"].miae < rows["empirical"].miae
        and rows["refined"].mise < rows["uniform"].mise < rows["empirical"].mise
    )
    ok &= order_ok
    _report(1, "estimator benchmark at I=300", ok, "; ".join(details))
    assert ok, details


def test_criterion_1_ci_variant_ordering_only():
    table = run_comparison(SimConfig(replications=100, sizes=(1000, 1000, 1000),
                                     grid=(0.0, 10.0, 1000), seed=515))
    rows = {r.estimator: r for r in table.rows}
    # ordering must hold beyond one Monte Carlo standard error
    gap_ru = rows["uniform"].miae - rows["refined"].miae
    gap_ue = rows["empirical"].miae - rows["uniform"].miae
    se_ru = np.hypot(rows["refined"].miae_se, rows["uniform"].miae_se)
    se_ue = np.hypot(rows["uniform"].miae_se, rows["empirical"].miae_se)
    ok = gap_ru > se_ru and gap_ue > se_ue
    _report(1, "I=100 ordering variant", ok,
            f"gaps {gap_ru:.2e} (> {se_ru:.2e}), {gap_ue:.2e} (> {se_ue:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# 2. Empirical Wald-interval arithmetic against frozen reference rows
# ---------------------------------------------------------------------------

WALD_REFERENCE_ROWS = [
    # frozen reference rows over n0 = 7425: (T, prob, ci_low, ci_high)
    (5.0, 4.057e-1, 3.945e-1, 4.168e-1),
    (10.0, 2.183e-1, 2.089e-1, 2.277e-1),
    (25.0, 6.667e-2, 6.099e-2, 7.234e-2),
    (50.0, 1.980e-2, 1.663e-2, 2.297e-2),
    (100.0, 2.559e-3, 1.410e-3, 3.708e-3),
    (150.0, 6.734e-4, 8.335e-5, 1.263e-3),
    (200.0, 2.693e-4, -1.039e-4, 6.426e-4),
]


def test_criterion_2_wald_reference_rows():
    n0 = 7425
    thresholds = [row[0] for row in WALD_REFERENCE_ROWS]
    counts = [round(row[1] * n0) for row in WALD_REFERENCE_ROWS]
    # one synthetic sample realizing every reference exceedance count at once:
    # place values between consecutive thresholds
    levels = [1.0, 7.0, 20.0, 40.0, 75.0, 120.0, 180.0, 250.0]
    blocks_n = []
    prev = [n0] + counts
    for above, below in zip(prev[:-1], prev[1:]):
        blocks_n.append(above - below)
    blocks_n.append(counts[-1])
    values = np.concatenate([np.full(k, lv) for k, lv in zip(blocks_n, levels)])
    assert values.size == n0
    sample = Sample.reference("beaver", values)
    ok = True
    mismatches = []
    estimates = threshold_probability(sample, thresholds, level=0.95)
    for (T, prob_p, lo_p, hi_p), est in zip(WALD_REFERENCE_ROWS, estimates):
        # the prob reconstructs the reference exceedance count exactly
        if round(est.prob * n0) != round(prob_p * n0):
            ok = False
            mismatches.append(f"T={T:g} count: {est.prob * n0:.1f}")
        for got, want, tag in ((est.ci[0], lo_p, "lo"), (est.ci[1], hi_p, "hi")):
            if _sig4(got) != _sig4(want):
                ok = False
                mismatches.append(f"T={T:g} {tag}: {_sig4(got)} != {_sig4(want)}")
    _report(2, "empirical Wald reference rows", ok,
            "all 7 intervals match to 4 significant figures" if ok else "; ".join(mismatches))
    assert ok, mismatches


# ---------------------------------------------------------------------------
# 3. DRM threshold CI coverage and width
# ---------------------------------------------------------------------------

def test_criterion_3_coverage_and_width():
    reps, n = 1000, 500
    tvals = (0.25, 0.5, 1.0)
    truth = {t: 1.0 - exp2_cdf(t) for t in tvals}
    cover = {t: 0 for t in tvals}
    width_drm = {t: 0.0 for t in tvals}
    width_emp = {t: 0.0 for t in tvals}
    for i in range(reps):
        ref, g, ln = generate(np.random.SeedSequence(31415, spawn_key=(i,)), (n, n, n))
        model = fit(validate([ref, g, ln], REFINED))
        drm = threshold_probability(model, tvals, level=0.95)
        emp = threshold_probability(ref, tvals, level=0.95)
        for t, est, est_emp in zip(tvals, drm, emp):
            cover[t] += est.ci[0] <= truth[t] <= est.ci[1]
            width_drm[t] += est.ci[1] - est.ci[0]
            width_emp[t] += est_emp.ci[1] - est_emp.ci[0]
    rates = {t: cover[t] / reps for t in tvals}
    widths_ok = all(width_drm[t] <= width_emp[t] for t in tvals)
    coverage_ok = all(0.92 <= rates[t] <= 0.98 for t in tvals)
    ok = widths_ok and coverage_ok
    detail = ", ".join(f"t={t:g}: cov={rates[t]:.3f} width {width_drm[t] / reps:.4f}"
                       f"<={width_emp[t] / reps:.4f}" for t in tvals)
    _report(3, "DRM CI coverage 95%±3% and width", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 4. Optimizer correctness on random small fixtures
# ---------------------------------------------------------------------------

def _random_fixture(rng, i):
    m = 1 + i % 2
    tilt_pool = ["x", "logx", "log2x", "x,logx", "x,log2x", "logx,log2x", "x,logx,log2x"]
    samples = [Sample.reference("r", rng.lognormal(0.0, 0.7, rng.integers(25, 51)))]
    tilts = []
    for k in range(m):
        mu = rng.uniform(-0.3, 0.3)
        samples.append(Sample.neighbor(f"n{k}", rng.lognormal(mu, 0.7, rng.integers(25, 51))))
        if i == 7 and k == 0:
            tilts.append(TiltSpec(()))          # one empty-tilt case in the mix
        else:
            tilts.append(TiltSpec.parse(tilt_pool[rng.integers(0, len(tilt_pool))]))
    return validate(samples, tilts)


def test_criterion_4_optimizer_matches_derivative_free_search():
    rng = np.random.default_rng(606)
    worst_gap, worst_score, worst_resid = 0.0, 0.0, 0.0
    for i in range(20):
        data = _random_fixture(rng, i)
        model = fit(data)
        free_idx = data.free

        def negl(v, data=data, free_idx=free_idx):
            full = np.zeros(data.m + data.r)
            full[free_idx] = v
            return -profile_loglik(full, data)

        res = minimize(negl, np.zeros(free_idx.size), method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-13,
                                    maxiter=200_000, maxfev=200_000))
        gap = float(np.max(np.abs(res.x - model.theta[free_idx]))) if free_idx.size else 0.0
        worst_gap = max(worst_gap, gap)
        worst_score = max(worst_score, model.score_norm / data.n)
        # log D_i = -log(n0 p_i), from the weights alone
        logD = -np.log(data.n0 * model.weights)
        q = np.exp(eta_matrix(model.theta, data) - logD[:, None])
        resid = abs(model.weights.sum() - 1.0)
        for k in range(data.m):
            resid = max(resid, abs(q[:, k].sum() / data.n0 - 1.0))
        worst_resid = max(worst_resid, resid)
    ok = worst_gap < 1e-6 and worst_score <= 1e-8 and worst_resid <= 1e-8
    _report(4, "optimizer vs derivative-free search", ok,
            f"max coord gap {worst_gap:.2e}, score/n {worst_score:.2e}, "
            f"constraint resid {worst_resid:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 5. Derivative correctness
# ---------------------------------------------------------------------------

def test_criterion_5_derivatives_match_finite_differences():
    rng = np.random.default_rng(909)
    ref = Sample.reference("r", rng.exponential(0.5, 70))
    g = Sample.neighbor("g", rng.gamma(2.0, 0.5, 60))
    ln = Sample.neighbor("l", rng.lognormal(1.0, 1.0, 50))
    data = validate([ref, g, ln], [TiltSpec.parse("x,logx,log2x"), TiltSpec.parse("x,log2x")])
    h = 1e-6
    worst_s, worst_h = 0.0, 0.0
    for _ in range(5):
        theta = rng.normal(0.0, 0.1, data.m + data.r)
        s = score(theta, data)
        H = hessian(theta, data)
        p = s.size
        fd_s = np.empty(p)
        fd_H = np.empty((p, p))
        for j in range(p):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd_s[j] = (profile_loglik(up, data) - profile_loglik(dn, data)) / (2 * h)
            fd_H[:, j] = (score(up, data) - score(dn, data)) / (2 * h)
        worst_s = max(worst_s, float(np.max(np.abs(s - fd_s) / np.maximum(1.0, np.abs(fd_s)))))
        worst_h = max(worst_h, float(np.max(np.abs(H - fd_H) / np.maximum(1.0, np.abs(fd_H)))))
    ok = worst_s < 1e-6 and worst_h < 1e-5
    _report(5, "analytic derivatives vs central differences", ok,
            f"score rel err {worst_s:.2e}, hessian rel err {worst_h:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 6 & 7. Asymptotic normality of theta and sigma(t), shared Monte Carlo
# ---------------------------------------------------------------------------

THETA0 = np.array([np.log(2.0), 1.0])      # Exp(2) vs Gamma(2,2) under tilt (logx)
TVALS = (0.25, 0.5, 1.0)


@pytest.fixture(scope="module")
def normality_mc():
    reps, n0 = 500, 500
    thetas = np.empty((reps, 2))
    gvals = np.empty((reps, len(TVALS)))
    Sigma_sum = np.zeros((2, 2))
    sigma_sum = np.zeros(len(TVALS))
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(2718, spawn_key=(i,)))
        ref = Sample.reference("e", rng.exponential(0.5, n0))
        g = Sample.neighbor("g", rng.gamma(2.0, 0.5, n0))
        data = validate([ref, g], [TiltSpec.parse("logx")])
        model = fit(data)
        thetas[i] = model.theta
        Sigma_sum += model.Sigma
        # G by a dense count, independent of the package's CDF kernel
        gvals[i] = (data.t[None, :] <= np.array(TVALS)[:, None]) @ model.weights
        sigma_sum += sigma_t(model, TVALS)[1]
    n = 2 * n0
    return {
        "emp_cov": np.cov((np.sqrt(n) * (thetas - THETA0)).T),
        "plug_Sigma": Sigma_sum / reps,
        "emp_var_G": n * gvals.var(axis=0, ddof=1),
        "plug_sigma": sigma_sum / reps,
    }


def test_criterion_6_theta_covariance_matches_Sigma(normality_mc):
    emp, plug = normality_mc["emp_cov"], normality_mc["plug_Sigma"]
    rel = np.abs(emp - plug) / np.abs(plug)
    ok = bool(np.max(rel) <= 0.15)
    _report(6, "cov sqrt(n)(theta-theta0) vs plug-in Sigma", ok,
            f"entrywise rel err max {np.max(rel):.3f}")
    assert ok, (emp, plug)


def test_criterion_7_G_variance_matches_sigma_t(normality_mc):
    emp, plug = normality_mc["emp_var_G"], normality_mc["plug_sigma"]
    rel = np.abs(emp - plug) / np.abs(plug)
    ok = bool(np.max(rel) <= 0.20)
    _report(7, "var sqrt(n)(G~-G) vs plug-in sigma(t)", ok,
            ", ".join(f"t={t:g}: {e:.4f} vs {p:.4f}" for t, e, p in zip(TVALS, emp, plug)))
    assert ok, (emp, plug)


# ---------------------------------------------------------------------------
# 8. Test calibration: chi-square size and refined-tilt recovery
# ---------------------------------------------------------------------------

def test_criterion_8_chi_square_size():
    reps, n = 1000, 1000
    rejections = 0
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(1618, spawn_key=(i,)))
        ref = Sample.reference("a", rng.exponential(0.5, n))
        nb = Sample.neighbor("b", rng.exponential(0.5, n))
        model = fit(validate([ref, nb], [GLOBAL_TILT]))
        rejections += chi_square_beta_test(model).p_value < 0.05
    rate = rejections / reps
    ok = 0.03 <= rate <= 0.07
    _report(8, "chi-square size at alpha=0.05", ok, f"rejection rate {rate:.3f}")
    assert ok, rate


def test_criterion_8_refined_tilt_recovery():
    # Target: >= 90% recovery of (log x) and (x, log2x) at n = 1000. Expected
    # to fail: per-component Z-test power caps recovery near 0.65 and 0.26
    # at this sample size (see the module docstring).
    reps, n = 1000, 1000
    want_g = TiltSpec((Basis.LOG,))
    want_l = TiltSpec((Basis.IDENTITY, Basis.LOGSQ))
    hits_g = hits_l = 0
    for i in range(reps):
        ref, g, ln = generate(np.random.SeedSequence(577215, spawn_key=(i,)), (n, n, n))
        tilts = refine_tilts(ref, [g, ln], alpha_level=0.05)
        hits_g += tilts[0] == want_g
        hits_l += tilts[1] == want_l
    rate_g, rate_l = hits_g / reps, hits_l / reps
    ok = rate_g >= 0.90 and rate_l >= 0.90
    _report(8, "refined-tilt recovery >= 90%", ok,
            f"gamma->(logx) {rate_g:.3f}, lognormal->(x,log2x) {rate_l:.3f}")
    assert ok, (rate_g, rate_l)


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism():
    cfg = SimConfig(replications=20, sizes=(300, 300, 300), seed=777)
    t1, t2 = run_comparison(cfg), run_comparison(cfg)
    sim_ok = t1.rows == t2.rows and t1.to_delimited() == t2.to_delimited()
    r1, r2 = replicate_errors(cfg), replicate_errors(cfg)
    rep_ok = all(np.array_equal(r1[k], r2[k]) for k in simulation.ESTIMATORS)
    ref, g, ln = generate(15, (800, 800, 800))
    tilts_ok = refine_tilts(ref, [g, ln]) == refine_tilts(ref, [g, ln])
    ok = sim_ok and rep_ok and tilts_ok
    _report(9, "bit-identical seeded reruns", ok,
            f"simulation {sim_ok}, per-replicate {rep_ok}, refine {tilts_ok}")
    assert ok
