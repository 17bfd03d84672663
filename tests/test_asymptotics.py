import numpy as np
import pytest

from drmfuse import (
    Sample,
    Sigma_matrix,
    SingularMatrix,
    TiltSpec,
    drm_cdf,
    fit,
    sigma_t,
    threshold_probability,
    validate,
)

from drmfuse import _kernels, asymptotics, inference, likelihood, simulation

import binning_oracle
import blocks_oracle as oracle
from conftest import make_fused, make_pair
from newton_oracle import hessian


def _equidistributed_pair(rng, n0=400, n1=300, tilt="x"):
    vals = rng.exponential(1.0, n0 + n1)
    return validate(
        [Sample.reference("r", vals[:n0]), Sample.neighbor("n", vals[n0:])],
        [TiltSpec.parse(tilt)],
    )


def test_blocks_equidistributed_A_closed_form(rng):
    data = _equidistributed_pair(rng)
    bb = oracle.blocks_at(np.zeros(data.m + data.r), data)
    rho1 = data.rho[1]
    assert bb.A[0, 0] == pytest.approx(1.0 / (1.0 + rho1), abs=1e-10)


def test_blocks_E_zero_for_log_tilt_on_unit_data():
    data = validate(
        [Sample.reference("r", np.ones(10)), Sample.neighbor("n", np.ones(6))],
        [TiltSpec.parse("logx")],
    )
    bb = oracle.blocks_at(np.zeros(data.m + data.r), data)
    assert np.allclose(bb.E, 0.0)
    assert np.allclose(bb.Ebar, 0.0)


def test_blocks_invariants(rng):
    model = fit(make_fused(rng, sizes=(300, 250, 200)))
    bb = oracle.blocks_at(model.theta, model.data)
    assert np.allclose(bb.A, bb.A.T, atol=1e-12)
    assert np.allclose(bb.C, bb.C.T, atol=1e-12)
    # each V_k symmetric PSD
    offs = bb.beta_offsets
    for k in range(bb.m):
        Vk = bb.V[offs[k]:offs[k + 1], offs[k]:offs[k + 1]]
        assert np.allclose(Vk, Vk.T, atol=1e-12)
        assert np.linalg.eigvalsh(Vk).min() > -1e-10


def test_blocks_match_direct_monte_carlo_integrals():
    # Three exponential samples whose true ratios are exp(alpha + beta x), so
    # the tilt (x) is correctly specified and every block integrand is
    # positive (relative tolerance is meaningful entrywise). Plug-in blocks
    # are compared with direct Monte Carlo integrals of the definitions under
    # the true reference G, using the true tilt values.
    rng = np.random.default_rng(424242)
    n = 150_000
    ref = Sample.reference("exp1", rng.exponential(1.0, n))
    nb1 = Sample.neighbor("exp08", rng.exponential(1.0 / 0.8, n))
    nb2 = Sample.neighbor("exp15", rng.exponential(1.0 / 1.5, n))
    data = validate([ref, nb1, nb2], [TiltSpec.parse("x"), TiltSpec.parse("x")])
    model = fit(data)
    bb = oracle.blocks_at(model.theta, data)

    x = np.random.default_rng(171717).exponential(1.0, 100_000)
    w = np.column_stack([0.8 * np.exp(0.2 * x), 1.5 * np.exp(-0.5 * x)])
    D = 1.0 + w[:, 0] + w[:, 1]
    for k in range(2):
        for kp in range(2):
            ww = w[:, k] * w[:, kp]
            assert bb.A[k, kp] == pytest.approx(np.mean(ww / D), rel=5e-2)
            assert bb.B[k, kp] == pytest.approx(np.mean(ww * x / D), rel=5e-2)
            assert bb.C[k, kp] == pytest.approx(np.mean(ww * x * x / D), rel=5e-2)
        assert bb.E[k, k] == pytest.approx(np.mean(w[:, k] * x), rel=5e-2)
        assert bb.Ebar[k, k] == pytest.approx(np.mean(w[:, k] * x * x), rel=5e-2)


def test_plugin_consistency_at_exact_zero(rng):
    # theta = 0 exactly: A_{kk'} all equal 1/sum(rho); S has the moment closed form
    data = _equidistributed_pair(rng, n0=500, n1=250, tilt="x")
    theta = np.zeros(data.m + data.r)
    bb = oracle.blocks_at(theta, data)
    c = data.rho.sum()
    assert np.max(np.abs(bb.A - 1.0 / c)) < 1e-10
    pw = np.full(data.n, 1.0 / (data.n0 * c))
    mu = float(pw @ data.t)
    m2 = float(pw @ (data.t * data.t))
    rho1 = data.rho[1]
    closed = (rho1 / c**2) * np.array([[1.0, mu], [mu, m2]])
    assert np.max(np.abs(oracle.S_matrix(bb, data) - closed)) < 1e-10
    assert np.max(np.abs(-hessian(theta, data) / data.n - closed)) < 1e-10


def test_S_equals_minus_hessian_over_n_at_optimum(rng):
    # fit.S is -H/n from the final Newton iterate; the oracle builds S from
    # the plug-in blocks of its definition. The second fixture has an empty tilt.
    for tilts in [("x,logx,log2x", "x,log2x"), ("x,logx", "-")]:
        data = make_fused(rng, sizes=(300, 260, 220), tilts=tilts)
        model = fit(data)
        S_blocks = oracle.S_matrix(oracle.blocks_at(model.theta, data), data)
        assert np.max(np.abs(model.S - S_blocks)) < 1e-10 * np.abs(model.S).max()


def test_S_positive_definite_on_fixtures(rng):
    for sizes in [(100, 80, 60), (300, 100, 50)]:
        model = fit(make_fused(rng, sizes=sizes))
        assert np.linalg.eigvalsh(model.S).min() > 0


def test_sigma_two_route_equality(rng):
    model = fit(make_fused(rng, sizes=(350, 300, 250)))
    bb = oracle.blocks_at(model.theta, model.data)
    Sinv = np.linalg.inv(oracle.S_matrix(bb, model.data))
    sandwich = Sinv @ oracle.lambda_matrix(bb, model.data) @ Sinv
    closed = model.Sigma
    assert np.max(np.abs(sandwich - closed)) < 1e-8
    assert np.max(np.abs(closed - closed.T)) < 1e-10


def test_sigma_beta_variance_scales_with_units(rng):
    data = make_pair(rng, n0=300, n1=250, tilt="x")
    model = fit(data)
    c = 4.0
    scaled = validate(
        [Sample.reference("r", data.reference.values * c),
         Sample.neighbor("n", data.neighbors[0][0].values * c)],
        [TiltSpec.parse("x")],
    )
    model_c = fit(scaled)
    assert model_c.Sigma[1, 1] == pytest.approx(model.Sigma[1, 1] / c**2, rel=1e-6)


def test_sigma_matrix_rejects_ill_conditioned(rng):
    model = fit(make_pair(rng, tilt="x"))
    bad = np.diag([1.0, 1e-14])
    with pytest.raises(SingularMatrix):
        Sigma_matrix(bad, model.data.rho)
    with pytest.raises(SingularMatrix):
        Sigma_matrix(np.diag([1.0, -1e-3]), model.data.rho)


def test_sigma_t_boundaries(rng):
    model = fit(make_fused(rng, sizes=(200, 150, 120)))
    below, above = sigma_t(model, [model.data.t.min() / 2.0, model.data.t.max() * 2.0])[1]
    assert below == 0.0
    assert np.isfinite(above) and above >= 0.0


def test_sigma_t_is_exactly_zero_at_and_above_the_largest_fused_point():
    # G sums all the mass there, which has no variance; the formula's
    # cancelling terms leave a ~1e-14 residue, so the se would read ~1e-9.
    # The reference's 0.99 quantile, the top of the bench's thresholds, keeps
    # its positive sigma
    for seed in (0, 2):
        samples = simulation.generate(seed, (1000, 1000, 1000))
        for tilts in (simulation.UNIFORM_TILTS, simulation.REFINED_TILTS):
            model = fit(validate(list(samples), list(tilts)))
            top = model.data.t.max()
            T = np.array([top, 2.0 * top, np.inf, np.quantile(samples[0].values, 0.99)])
            G, sigma = sigma_t(model, T)
            assert sigma[:3].tolist() == [0.0, 0.0, 0.0]
            assert sigma[3] > 1e-3
            assert G.tobytes() == drm_cdf(model, T).tobytes()
            assert [e.se for e in threshold_probability(model, T[:3])] == [0.0, 0.0, 0.0]


def test_sigma_t_piecewise_constant(rng):
    model = fit(make_fused(rng, sizes=(80, 70, 60)))
    pts = np.sort(np.unique(model.data.t))[:12]
    at_left = sigma_t(model, pts[:-1])[1]
    at_mid = sigma_t(model, 0.5 * (pts[:-1] + pts[1:]))[1]
    assert np.allclose(at_mid, at_left, rtol=0.0, atol=1e-14)


def test_threshold_estimates_reuse_the_fits_ratios(rng, monkeypatch):
    # FittedModel.U is the final iterate's pass, bit for bit, and the
    # threshold estimates make no second pass over the tilt exponents
    model = fit(make_fused(rng))
    assert model.U.tobytes() == _kernels.log_denominators(model.theta, model.data)[1].tobytes()
    assert not model.U.flags.writeable
    T = np.quantile(model.data.t, [0.1, 0.5, 0.9])
    expected = threshold_probability(model, T)

    def no_pass(*args):
        raise AssertionError("the threshold estimates repeated the exponent pass")

    for module in (_kernels, asymptotics, inference, likelihood):   # and names bound by import
        for name in ("eta_matrix", "log_denominators"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_pass)
    assert threshold_probability(model, T) == expected


@pytest.mark.parametrize("case", ["untied", "tied-0.1", "shared-points"])
def test_sigma_t_G_matches_the_step_cdf(rng, case):
    # sigma_t's G against a dense count of the weights, at every
    # distinct fused point, between them, below the minimum and above the maximum
    data = make_fused(rng, sizes=(300, 250, 200))
    if case == "tied-0.1":   # the + 0.1 keeps every value positive
        data = validate(
            [Sample.reference(data.reference.label, np.round(data.reference.values, 1) + 0.1)]
            + [Sample.neighbor(s.label, np.round(s.values, 1) + 0.1) for s, _ in data.neighbors],
            [spec for _, spec in data.neighbors],
        )
    elif case == "shared-points":
        # every neighbor shares points with the reference
        shared = data.reference.values[:60]
        data = validate(
            [data.reference]
            + [Sample.neighbor(s.label, np.concatenate([s.values, shared]))
               for s, _ in data.neighbors],
            [spec for _, spec in data.neighbors],
        )
    model = fit(data)
    pts = np.unique(data.t)
    if case != "untied":
        assert pts.size < data.n
    T = np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:]),
                        [pts[0] / 2.0, pts[0] - 1e-12, pts[-1] * 2.0, np.inf]])
    G, _ = sigma_t(model, T)
    want = (data.t[None, :] <= T[:, None]) @ model.weights   # dense oracle
    assert np.max(np.abs(G - want)) <= 1e-13
    assert G[-4] == G[-3] == 0.0


def test_sigma_t_no_neighbors_is_binomial(rng):
    data = validate([Sample.reference("r", rng.exponential(1.0, 500))], [])
    model = fit(data)
    t = float(np.median(data.t))
    G = float((data.t <= t).mean())
    assert sigma_t(model, [t])[1][0] == pytest.approx(G * (1 - G), rel=1e-12)


@pytest.mark.parametrize("tilts", [("x,logx,log2x", "x,log2x"), ("logx", "-")])
def test_sigma_t_matches_oracle_at_every_fused_point(rng, tilts):
    # Values rounded to 0.05 give heavy ties; sigma(t) is evaluated at every
    # distinct fused point, where the right-continuous sums jump.
    data = make_fused(rng, sizes=(150, 120, 100), tilts=tilts)
    tied = validate(
        [Sample.reference("r", np.round(data.reference.values, 2) + 0.05)]
        + [Sample.neighbor(s.label, np.round(s.values, 2) + 0.05)
           for s, _ in data.neighbors],
        [spec for _, spec in data.neighbors],
    )
    model = fit(tied)
    pts = np.unique(tied.t)
    assert pts.size < tied.n
    got = sigma_t(model, pts)[1]
    want = np.array([oracle.sigma_t(model, t) for t in pts])
    assert np.max(np.abs(got - want)) <= 1e-10 * want.max()


def test_at_or_below_matches_a_direct_count(rng):
    t = np.round(rng.exponential(1.0, 500), 1)   # ties
    W = np.asfortranarray(rng.normal(size=(500, 3)))
    T = np.concatenate([t[:20], [-np.inf, np.inf, -1.0, 0.05, 2.55], t[:5]])
    below = t[None, :] <= T[:, None]
    assert np.array_equal(_kernels.at_or_below(t, T), below.sum(axis=1))
    assert np.max(np.abs(_kernels.at_or_below(t, T, W) - below @ W)) <= 1e-12


@pytest.mark.parametrize("case", [
    "ties", "duplicates_shuffled", "infinite", "K0", "K1", "K_above_n",
    "all_below", "all_above",
])
def test_at_or_below_equals_the_unsorted_key_oracle_bitwise(rng, case):
    # the sorted-key merge finds the same bins as one search per point, so
    # counts and weighted sums add in the same order, bit for bit
    t = np.round(rng.exponential(1.0, 300), 1)   # tied points
    W = np.asfortranarray(rng.normal(size=(t.size, 3)))
    T = {
        "ties": t[:40],
        "duplicates_shuffled": rng.permutation(np.concatenate([t[:30], t[:30], t[5:15]])),
        "infinite": np.array([np.inf, 0.3, -np.inf, np.inf, 1.0, -np.inf]),
        "K0": np.empty(0),
        "K1": t[:1],
        "K_above_n": rng.permutation(np.concatenate([t, rng.exponential(1.0, 200)])),
        "all_below": np.linspace(-3.0, -1.0, 25),
        "all_above": np.linspace(t.max(), t.max() + 5.0, 25),
    }[case]
    for weights in (None, W):
        got = _kernels.at_or_below(t, T, weights)
        want = binning_oracle.at_or_below(t, T, weights)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_threshold_results_follow_the_order_of_T(rng):
    # repeats, fused points, midpoints, values below the minimum and +-inf
    model = fit(make_fused(rng, sizes=(200, 150, 120)))
    pts = np.unique(model.data.t)
    T = np.concatenate([pts[::9], pts[::27], 0.5 * (pts[1:60:6] + pts[2:61:6]),
                        [pts[0] / 2.0, -np.inf, np.inf, np.inf, pts[-1]]])
    G, sigma = sigma_t(model, T)
    sources = (model, model.data.reference)
    estimates = [threshold_probability(source, T) for source in sources]
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(T.size)
        G_perm, sigma_perm = sigma_t(model, T[perm])
        assert G_perm.tobytes() == G[perm].tobytes()
        assert sigma_perm.tobytes() == sigma[perm].tobytes()
        for source, est in zip(sources, estimates):
            assert threshold_probability(source, T[perm]) == tuple(est[i] for i in perm)


def _count_record_sorts(monkeypatch, limit):
    # every np.argsort, np.sort or np.unique of at least ``limit`` elements is
    # recorded by size; smaller ones (the thresholds) pass unrecorded
    sizes = []
    for name in ("argsort", "sort", "unique"):
        def counted(a, *args, _orig=getattr(np, name), **kwargs):
            if np.size(a) >= limit:
                sizes.append(np.size(a))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return sizes


def test_threshold_path_sorts_the_records_once_per_call(rng, monkeypatch):
    # each threshold_probability source sorts its records exactly once,
    # in its one at_or_below call, never once per threshold
    model = fit(make_fused(rng))
    sources = (model, model.data.reference)
    T = np.quantile(model.data.t, np.linspace(0.0, 1.0, 25))
    expected = [threshold_probability(source, T) for source in sources]
    sizes = _count_record_sorts(monkeypatch, model.data.reference.n)
    assert [threshold_probability(source, T) for source in sources] == expected
    assert sizes == [model.data.n, model.data.reference.n]


def test_cdf_and_simulation_paths_sort_the_records_once_per_call(monkeypatch):
    # drm_cdf over the fused records and a Monte Carlo replicate's three
    # estimators each sort the fused points exactly once
    samples = simulation.generate(7, (200, 200, 200))
    model = fit(validate(list(samples), list(simulation.REFINED_TILTS)))
    grid = (0.0, 5.0, 50)
    T = np.linspace(0.0, 5.0, 50)

    def outputs():
        return (drm_cdf(model, T).tobytes(),
                simulation._replicate_errors(samples, grid))

    expected = outputs()
    sizes = _count_record_sorts(monkeypatch, samples[0].n)
    assert outputs() == expected
    assert sizes == [model.data.n] * 2


def test_Sigma_beta_block_is_that_of_S_inverse(rng):
    # Sigma_matrix corrects only the alpha block, so the beta variances that
    # z_tests divides by are the diagonal of S^-1 there, positive for a
    # positive definite S
    for tilts in (("x,logx,log2x", "x,log2x"), ("logx", "-"), ("", "x")):
        model = fit(make_fused(rng, sizes=(200, 150, 120), tilts=tilts))
        m = model.data.m
        want = asymptotics._sym_inverse(model.S, "S")[m:, m:]
        got = model.Sigma[m:, m:]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.all(np.diag(got) > 0.0)
