import math

import numpy as np
import pytest
from scipy.stats import chi2, norm

from drmfuse import (
    ArityMismatch,
    GLOBAL_TILT,
    Basis,
    InputError,
    Sample,
    TiltSpec,
    chi_square_beta_test,
    drm_cdf,
    empirical_cdf,
    fit,
    gof_pairs,
    refine_tilts,
    threshold_probability,
    validate,
    z_tests,
)
from drmfuse import inference
from drmfuse.simulation import generate

from conftest import make_fused, make_pair


def _identical_pair(rng, n=400):
    vals = rng.lognormal(0.8, 0.7, n)
    return validate(
        [Sample.reference("r", vals), Sample.neighbor("n", vals)],
        [GLOBAL_TILT],
    )


# ---------------------------------------------------------------------------
# CDF estimators
# ---------------------------------------------------------------------------

def test_empirical_cdf_basics():
    cdf = empirical_cdf(Sample.reference("r", [1.0, 2.0, 3.0]))
    assert cdf(2.0) == pytest.approx(2.0 / 3.0)
    assert cdf(1.0 - 1e-9) == 0.0
    assert cdf(3.0) == 1.0


def test_empirical_cdf_beaver_pooled_exceedances():
    # 2 exceedances of 200 among n0 = 7425 gives 1 - Ghat(200) = 2.693e-4
    values = np.concatenate([np.full(7423, 1.0), [250.0, 300.0]])
    cdf = empirical_cdf(Sample.reference("beaver", values))
    prob = 1.0 - cdf(200.0)
    assert prob == pytest.approx(2.0 / 7425.0, rel=1e-12)
    assert f"{prob:.4g}" == "0.0002694"


def test_drm_cdf_no_neighbors_equals_empirical(rng):
    ref = Sample.reference("r", rng.exponential(1.0, 200))
    model = fit(validate([ref], []))
    gtilde = drm_cdf(model)
    ghat = empirical_cdf(ref)
    xs = np.linspace(0, 5, 101)
    assert np.allclose(gtilde(xs), ghat(xs), atol=1e-12)


def test_drm_cdf_support_spans_fused_data(rng):
    ref = Sample.reference("r", rng.uniform(1.0, 2.0, 100))
    nb = Sample.neighbor("n", rng.uniform(1.5, 6.0, 100))
    model = fit(validate([ref, nb], [TiltSpec.parse("x")]))
    gtilde = drm_cdf(model)
    assert gtilde.points.max() > ref.values.max()
    assert 0.0 < gtilde(3.0) < 1.0  # mass beyond the reference's own range


def test_cdf_estimators_total_mass(rng):
    model = fit(make_fused(rng, sizes=(200, 150, 120)))
    assert abs(drm_cdf(model).total - 1.0) < 1e-10
    assert abs(empirical_cdf(model.data.reference).total - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Tests and refinement
# ---------------------------------------------------------------------------

def test_chi_square_null_on_identical_copies(rng):
    model = fit(_identical_pair(rng))
    report = chi_square_beta_test(model)
    assert report.statistic < 1e-8
    assert report.p_value > 1.0 - 1e-6
    assert report.df == 3
    assert report.per_component is None


def test_chi_square_requires_pairwise(rng):
    model = fit(make_fused(rng))
    with pytest.raises(ArityMismatch):
        chi_square_beta_test(model)


def test_reports_on_empty_tilt_pairwise_fit(rng):
    # nothing to test when the pair is declared equidistributed
    ref = Sample.reference("r", rng.exponential(1.0, 100))
    nb = Sample.neighbor("n", rng.exponential(1.0, 80))
    model = fit(validate([ref, nb], [TiltSpec(())]))
    joint = chi_square_beta_test(model)
    assert (joint.statistic, joint.df, joint.p_value) == (0.0, 0, 1.0)
    assert z_tests(model).per_component == ()


def test_chi_square_invariant_to_component_order():
    ref, g, _ = generate(321, (600, 600, 10))
    stat1 = chi_square_beta_test(
        fit(validate([ref, g], [TiltSpec.parse("x,logx,log2x")]))
    ).statistic
    stat2 = chi_square_beta_test(
        fit(validate([ref, g], [TiltSpec.parse("log2x,x,logx")]))
    ).statistic
    assert stat1 == pytest.approx(stat2, rel=1e-8)


def test_chi_square_power_exp_vs_gamma():
    ref, g, _ = generate(12345, (1000, 1000, 10))
    model = fit(validate([ref, g], [GLOBAL_TILT]))
    report = chi_square_beta_test(model)
    assert report.statistic > 100.0
    assert report.p_value < 1e-12


def test_z_tests_null_and_signal():
    ref, g, ln = generate(777, (1000, 1000, 1000))
    zg = z_tests(fit(validate([ref, g], [GLOBAL_TILT])))
    by_basis = {c.basis: c for c in zg.per_component}
    assert abs(by_basis[Basis.LOG].z) > 1.96          # true ratio exp(log2 + log x)
    zl = z_tests(fit(validate([ref, ln], [GLOBAL_TILT])))
    by_basis = {c.basis: c for c in zl.per_component}
    assert abs(by_basis[Basis.IDENTITY].z) > 1.96     # true ratio has 2x term
    assert len(zl.per_component) == 3


def test_z_tests_zero_component(rng):
    report = z_tests(fit(_identical_pair(rng)))
    for comp in report.per_component:
        assert abs(comp.z) < 1e-3
        assert comp.p > 0.999


@pytest.mark.parametrize("tilt", ["logx", "x,log2x", "x,logx,log2x"])
def test_report_p_values_match_scipy(tilt):
    ref, g, _ = generate(4242, (400, 400, 10))
    model = fit(validate([ref, g], [TiltSpec.parse(tilt)]))
    joint = chi_square_beta_test(model)
    report = z_tests(model)
    assert (report.statistic, report.df, report.p_value) == \
        (joint.statistic, joint.df, joint.p_value)
    assert joint.df == len(tilt.split(","))
    assert joint.p_value == pytest.approx(chi2.sf(joint.statistic, joint.df), rel=1e-12)
    for comp in report.per_component:
        assert comp.p == pytest.approx(2.0 * norm.sf(abs(comp.z)), rel=1e-12)


# ---------------------------------------------------------------------------
# Standard-library tail functions: scipy.stats as the oracle
# ---------------------------------------------------------------------------

def _max_rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / want))


def test_two_sided_p_matches_scipy():
    z = np.linspace(0.0, 38.0, 20001)
    got = np.array([inference._two_sided_p(v) for v in z])
    want = 2.0 * norm.sf(z)
    # relative error where scipy's value is a normal float (z < ~37.5); beyond
    # it scipy underflows to 0 and erfc gives subnormals
    normal = want >= np.finfo(float).tiny
    assert normal.mean() > 0.98
    assert _max_rel_err(got[normal], want[normal]) <= 1e-12
    assert np.all(np.abs(got[~normal] - want[~normal]) <= np.finfo(float).tiny)
    assert [inference._two_sided_p(-v) for v in z[::1000]] == list(got[::1000])


@pytest.mark.parametrize("df", [1, 2, 3])
def test_chi2_sf_matches_scipy(df):
    x = np.linspace(0.0, 1400.0, 20001)
    got = np.array([inference._chi2_sf(v, df) for v in x])
    want = chi2.sf(x, df)
    assert np.all(want > 0.0)
    assert _max_rel_err(got, want) <= 1e-12


def test_wald_z_matches_scipy():
    levels = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 2001),
                             1.0 - np.logspace(-6.0, -15.0, 500)])
    got = np.array([inference._wald_z(v) for v in levels])
    assert _max_rel_err(got, norm.isf((1.0 - levels) / 2.0)) <= 4e-15


def test_tail_edge_cases():
    for df in (1, 2, 3, 4):
        assert inference._chi2_sf(0.0, df) == 1.0
        assert inference._chi2_sf(-1e-300, df) == 1.0
        assert inference._chi2_sf(math.inf, df) == 0.0
        assert math.isnan(inference._chi2_sf(math.nan, df))
    assert inference._two_sided_p(0.0) == 1.0
    assert inference._two_sided_p(math.inf) == 0.0
    assert inference._two_sided_p(-math.inf) == 0.0
    assert math.isnan(inference._two_sided_p(math.nan))
    z = inference._wald_z(np.nextafter(1.0, 0.0))
    assert math.isfinite(z) and z == pytest.approx(8.29, abs=0.01)


def test_refine_identical_copy_is_equidistributed(rng):
    vals = rng.lognormal(0.8, 0.7, 500)
    ref = Sample.reference("r", vals)
    nb = Sample.neighbor("n", vals)
    tilts = refine_tilts(ref, [nb])
    assert tilts == [TiltSpec(())]


def test_refine_returns_one_spec_per_neighbor_and_is_deterministic(monkeypatch):
    ref, g, ln = generate(15, (1000, 1000, 1000))
    calls = []
    joint_test = inference.chi_square_beta_test

    def counting(fit2):
        calls.append(fit2)
        return joint_test(fit2)

    monkeypatch.setattr(inference, "chi_square_beta_test", counting)
    tilts1 = refine_tilts(ref, [g, ln])
    assert len(calls) == 2   # one joint test per neighbor, rejected ones included
    tilts2 = refine_tilts(ref, [g, ln])
    assert tilts1 == tilts2
    assert len(tilts1) == 2
    # the synthetic truth: (log x) for the gamma pair, (x, log2x) for lognormal
    assert tilts1[0] == TiltSpec((Basis.LOG,))
    assert tilts1[1] == TiltSpec((Basis.IDENTITY, Basis.LOGSQ))


def test_refine_annotates_errors_with_neighbor_label(rng):
    from drmfuse import SingularHessian
    ref = Sample.reference("r", rng.exponential(1.0, 50))
    flat = Sample.neighbor("flatliner", np.full(30, 2.0))
    # constant neighbor + varying reference is fine, so force a fully constant design
    ref_const = Sample.reference("r", np.full(40, 2.0))
    with pytest.raises(SingularHessian) as exc:
        refine_tilts(ref_const, [flat])
    assert "flatliner" in str(exc.value)


def test_refine_alpha_level_validation(rng):
    ref = Sample.reference("r", rng.exponential(1.0, 30))
    nb = Sample.neighbor("n", rng.exponential(1.0, 30))
    with pytest.raises(ArityMismatch):
        refine_tilts(ref, [nb], alpha_level=0.0)


# ---------------------------------------------------------------------------
# Threshold probabilities
# ---------------------------------------------------------------------------

def test_threshold_below_all_data_degenerate_wald(rng):
    sample = Sample.reference("r", rng.uniform(5.0, 9.0, 60))
    (est,) = threshold_probability(sample, [1.0])
    assert est.prob == 1.0
    assert est.se == 0.0
    assert est.ci == (1.0, 1.0)


def test_threshold_wald_matches_reference_interval():
    # reference interval for 2 exceedances among n0 = 7425
    n0 = 7425
    count = 2
    values = np.concatenate([np.full(n0 - count, 1.0), np.full(count, 250.0)])
    sample = Sample.reference("beaver", values)
    (est,) = threshold_probability(sample, [200.0], level=0.95)
    assert f"{est.ci[0]:.4g}" == "-0.0001039"
    assert f"{est.ci[1]:.4g}" == "0.0006426"
    lo_c, hi_c = est.ci_clamped
    assert lo_c == 0.0 and hi_c == est.ci[1]


def test_threshold_interval_finite_at_level_next_to_one(rng):
    # 0.5 + level / 2 rounds to 1 here, whose upper-tail quantile is inf
    level = np.nextafter(1.0, 0.0)
    z = norm.isf((1.0 - level) / 2.0)
    model = fit(make_pair(rng))
    ref = model.data.reference
    for source in (model, ref):
        for est in threshold_probability(source, [0.3, 1.0], level=level):
            assert all(math.isfinite(c) for c in est.ci)
            assert est.ci[1] - est.prob == pytest.approx(z * est.se, rel=1e-14)


def test_threshold_drm_monotone_and_symmetric(rng):
    model = fit(make_fused(rng, sizes=(300, 250, 200)))
    probs = []
    for est in threshold_probability(model, (0.25, 0.5, 1.0, 2.0)):
        probs.append(est.prob)
        assert est.method == "drm"
        assert est.n_effective == model.data.n
        assert (est.ci[0] + est.ci[1]) / 2.0 == pytest.approx(est.prob, abs=1e-15)
        assert est.ci[0] <= est.prob <= est.ci[1]
    assert all(a >= b for a, b in zip(probs[:-1], probs[1:]))


def test_empirical_exceedance_is_the_exact_share_above(rng):
    # ties, thresholds at data points, between them, at and above the maximum
    values = np.round(rng.lognormal(1.0, 0.8, 300), 1) + 0.1
    n = values.size
    pts = np.unique(values)
    T = np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:]), [3.0, 2.0 * pts[-1], -np.inf, np.inf]])
    for t, est in zip(T, threshold_probability(Sample.reference("r", values), T)):
        p = np.count_nonzero(values > t) / n
        assert est.prob == p and est.se == math.sqrt(p * (1.0 - p) / n), t
    assert pts.size < n


def test_nan_threshold_is_an_input_error(rng):
    model = fit(make_pair(rng))
    for source in (model, model.data.reference):
        with pytest.raises(InputError, match="position 2 is NaN"):
            threshold_probability(source, [1.0, np.inf, np.nan, 2.0])
        below, above = threshold_probability(source, [-np.inf, np.inf])
        assert below.prob == 1.0 and below.se == 0.0
        assert above.prob == pytest.approx(0.0, abs=1e-14)


def test_threshold_source_type_check(rng):
    model = fit(make_pair(rng))
    with pytest.raises(ArityMismatch):
        threshold_probability("nonsense", [1.0])
    with pytest.raises(ArityMismatch):
        threshold_probability(model, [1.0], level=1.5)
    with pytest.raises(ArityMismatch):
        threshold_probability(model, 1.0)


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------

def test_gof_no_neighbors_on_diagonal(rng):
    ref = Sample.reference("r", rng.exponential(1.0, 150))
    model = fit(validate([ref], []))
    result = gof_pairs(model)
    assert result.max_abs_diff < 1e-12
    assert np.allclose(result.pairs[:, 0], result.pairs[:, 1])


def test_gof_well_specified_is_close():
    ref, g, ln = generate(99, (1000, 1000, 1000))
    data = validate([ref, g, ln],
                    [TiltSpec.parse("logx"), TiltSpec.parse("x,log2x")])
    result = gof_pairs(fit(data))
    assert result.max_abs_diff < 0.05


def test_gof_misspecified_alarm():
    # forcing empty tilts on strongly different neighbors pools them wholesale
    ref, g, ln = generate(99, (1000, 1000, 1000))
    data = validate([ref, g, ln], [TiltSpec(()), TiltSpec(())])
    result = gof_pairs(fit(data))
    assert result.max_abs_diff > 0.1
