import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from drmfuse import (
    ArityMismatch,
    NoConvergence,
    NonFinite,
    Sample,
    SingularHessian,
    Theta,
    TiltSpec,
    fit,
    hessian,
    profile_loglik,
    score,
    tilt_value,
    validate,
)
from drmfuse import _kernels
from drmfuse.likelihood import FitOptions, _fit_core

import blocks_oracle
from conftest import make_fused, make_pair

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# tilt_value
# ---------------------------------------------------------------------------

def test_tilt_value_at_one():
    assert np.allclose(tilt_value(TiltSpec.parse("x,logx,log2x"), 1.0), [1.0, 0.0, 0.0])


def test_tilt_value_at_e():
    assert np.allclose(tilt_value(TiltSpec.parse("x,log2x"), math.e), [math.e, 1.0])


def test_tilt_value_log2():
    assert np.allclose(tilt_value(TiltSpec.parse("logx"), 2.0), [math.log(2.0)])


# ---------------------------------------------------------------------------
# profile_loglik
# ---------------------------------------------------------------------------

def test_loglik_no_neighbors():
    data = validate([Sample.reference("r", [1.0, 2.0, 3.0, 4.0])], [])
    assert profile_loglik(Theta.zeros(()), data) == pytest.approx(-4 * math.log(4), rel=1e-14)


def test_loglik_at_zero_is_minus_n_log_n(rng):
    data = make_fused(rng)
    n = data.n
    got = profile_loglik(Theta.zeros(data.dims), data)
    assert got == pytest.approx(-n * math.log(n), rel=1e-13)


def test_loglik_matches_independent_reimplementation(rng):
    # direct transcription of the closed form with raw exps and python loops
    data = make_pair(rng, n0=5, n1=5, tilt="x")
    theta = Theta(np.array([0.2]), (np.array([-0.3]),))

    def naive(alpha, beta):
        rho = [1.0, data.n_k[1] / data.n_k[0]]
        total = 0.0
        for t in data.t:
            total -= math.log(data.n0 * (rho[0] + rho[1] * math.exp(alpha + beta * t)))
        total += data.n_k[1] * alpha
        total += beta * sum(data.neighbors[0][0].values)
        return total

    assert profile_loglik(theta, data) == pytest.approx(naive(0.2, -0.3), abs=1e-12)


def test_loglik_dimension_mismatch(rng):
    data = make_pair(rng)
    with pytest.raises(ArityMismatch):
        profile_loglik(Theta.zeros((2,)), data)


# ---------------------------------------------------------------------------
# log_denominators: scipy's logsumexp as the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tilts", [("x,logx,log2x", "x,log2x"), ("", "logx"), ()])
def test_log_denominators_match_logsumexp(rng, monkeypatch, tilts):
    # exponents up to +-700 (a separated-support fit reaches them), rows all
    # far below 0, rows near 0, unequal rho, an empty tilt and m = 0
    samples = [Sample.reference("r", rng.exponential(1.0, 400))]
    samples += [Sample.neighbor(f"n{k}", rng.exponential(1.0, 150 + 170 * k))
                for k in range(len(tilts))]
    data = validate(samples, [TiltSpec.parse(t) if t else TiltSpec(()) for t in tilts])
    eta = rng.uniform(-700.0, 700.0, (data.n, data.m))
    eta[:100] = rng.uniform(-700.0, -1.0, (100, data.m))
    eta[100:200] = rng.uniform(-1e-3, 1e-3, (100, data.m))
    monkeypatch.setattr(_kernels, "eta_matrix", lambda theta, data: eta)
    logD, got = _kernels.log_denominators(Theta.zeros(data.dims), data)
    assert got is eta
    full = np.column_stack([np.zeros(data.n), eta])
    ref = logsumexp(full, axis=1, b=np.broadcast_to(data.rho, full.shape))
    assert np.all(np.abs(logD - ref) <= 1e-13 * np.abs(ref))


def test_log_denominators_reject_non_finite_exponents(rng):
    data = make_pair(rng, tilt="x")
    for bad in (np.inf, np.nan):
        with pytest.raises(NonFinite, match="tilt exponents"):
            _kernels.log_denominators(Theta(np.array([bad]), (np.array([0.0]),)), data)


def test_tilt_arrays_are_column_major(rng):
    data = make_fused(rng)
    assert data.m >= 2
    for B in data.basis:
        assert B.flags.f_contiguous and not B.flags.writeable
    theta = Theta.from_flat(rng.normal(0, 0.1, data.m + data.r), data.dims)
    eta = _kernels.eta_matrix(theta, data)
    assert eta.flags.f_contiguous
    assert _kernels.tilt_design(np.exp(eta), data).flags.f_contiguous


# ---------------------------------------------------------------------------
# score / hessian: the per-neighbor oracle and finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tilts", [("x,logx,log2x", "x,logx,log2x"), ("logx", "x"),
                                   ("", "x,log2x"), ("x,log2x", "")])
@pytest.mark.parametrize("tied", [False, True])
def test_score_hessian_match_per_neighbor_oracle(rng, tilts, tied):
    data = make_fused(rng, tilts=tilts)
    if tied:  # every value repeated across and within samples
        vals = np.round(data.t, 1) + 0.1
        cuts = np.cumsum(data.n_k)[:-1].astype(int)
        ref, *nbs = np.split(vals, cuts)
        data = validate([Sample.reference("r", ref)]
                        + [Sample.neighbor(f"n{k}", v) for k, v in enumerate(nbs)],
                        [spec for _, spec in data.neighbors])
    for _ in range(3):
        flat = rng.normal(0, 0.2, data.m + data.r)
        flat[:data.m] *= data.alpha_free
        theta = Theta.from_flat(flat, data.dims)
        s_ref, H_ref = blocks_oracle.score_hessian(theta, data)
        s, H = score(theta, data), hessian(theta, data)
        assert np.max(np.abs(s - s_ref)) <= 1e-12 * np.max(np.abs(s_ref))
        assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))


def _fd_score(theta, data, h=1e-6):
    flat = theta.flat
    out = np.empty(flat.size)
    for j in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (
            profile_loglik(Theta.from_flat(up, data.dims), data)
            - profile_loglik(Theta.from_flat(dn, data.dims), data)
        ) / (2 * h)
    return out


def _fd_hessian(theta, data, h=1e-6):
    flat = theta.flat
    out = np.empty((flat.size, flat.size))
    for j in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[j] += h
        dn[j] -= h
        out[:, j] = (
            score(Theta.from_flat(up, data.dims), data)
            - score(Theta.from_flat(dn, data.dims), data)
        ) / (2 * h)
    return out


def test_score_matches_finite_differences(rng):
    data = make_fused(rng, sizes=(60, 50, 40))
    theta = Theta.from_flat(rng.normal(0, 0.1, data.m + data.r), data.dims)
    s = score(theta, data)
    fd = _fd_score(theta, data)
    assert np.max(np.abs(s - fd) / np.maximum(1.0, np.abs(fd))) < 1e-6


def test_score_balanced_identical_at_zero():
    # alpha-score vanishes at theta = 0 when the two samples are identical copies
    vals = np.array([0.5, 1.0, 2.0, 4.0])
    data = validate(
        [Sample.reference("r", vals), Sample.neighbor("n", vals)],
        [TiltSpec.parse("x")],
    )
    s = score(Theta.zeros(data.dims), data)
    assert abs(s[0]) < 1e-12


def test_hessian_symmetric_and_matches_finite_differences(rng):
    data = make_fused(rng, sizes=(60, 50, 40))
    theta = Theta.from_flat(rng.normal(0, 0.1, data.m + data.r), data.dims)
    H = hessian(theta, data)
    assert np.array_equal(H, H.T)
    fd = _fd_hessian(theta, data)
    denom = np.maximum(1.0, np.abs(fd))
    assert np.max(np.abs(H - fd) / denom) < 1e-5


def test_hessian_negative_semidefinite(rng):
    data = make_fused(rng)
    theta = Theta.from_flat(rng.normal(0, 0.2, data.m + data.r), data.dims)
    assert np.linalg.eigvalsh(hessian(theta, data)).max() < 1e-8


def test_minus_hessian_over_n_approaches_limit_information(rng):
    # equidistributed pair, tilt (x): the limit of -H/n at 0 has the closed
    # form rho/(1+rho)^2 * [[1, mu], [mu, m2]] with moments of the pooled law
    n = 10_000
    vals0 = rng.exponential(1.0, n)
    vals1 = rng.exponential(1.0, n)
    data = validate(
        [Sample.reference("r", vals0), Sample.neighbor("n", vals1)],
        [TiltSpec.parse("x")],
    )
    model = fit(data)
    H = hessian(model.theta, data)
    mu, m2 = 1.0, 2.0  # Exp(1) moments
    limit = 0.25 * np.array([[1.0, mu], [mu, m2]])
    assert np.max(np.abs(-H / data.n - limit) / np.abs(limit)) < 5e-2


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_no_neighbors_gives_uniform_weights():
    data = validate([Sample.reference("r", [1.0, 2.0, 5.0])], [])
    model = fit(data)
    assert np.allclose(model.weights, 1.0 / 3.0)
    assert model.iterations == 0


def test_fit_identical_copies_recovers_zero():
    rng = np.random.default_rng(5)
    vals = rng.lognormal(0.5, 0.8, 300)
    data = validate(
        [Sample.reference("r", vals), Sample.neighbor("n", vals)],
        [TiltSpec.parse("x")],
    )
    model = fit(data)
    assert abs(model.theta.beta[0][0]) <= 1e-6
    assert abs(model.theta.alpha[0]) <= 1e-6


def test_fit_matches_derivative_free_optimizer(rng):
    data = make_pair(rng, n0=40, n1=35, tilt="x")
    model = fit(data)

    def negl(v):
        return -profile_loglik(Theta.from_flat(v, data.dims), data)

    res = minimize(negl, np.zeros(2), method="Nelder-Mead",
                   options=dict(xatol=1e-10, fatol=1e-14, maxiter=100_000, maxfev=100_000))
    assert np.max(np.abs(res.x - model.theta.flat)) < 1e-6


def test_fit_constraints_hold_at_optimum(rng):
    data = make_fused(rng, sizes=(250, 200, 150))
    model = fit(data)
    assert abs(model.weights.sum() - 1.0) < 1e-10
    assert (model.weights > 0).all()
    # sum_i p_i w_k(t_i) = 1 for every neighbor, via the bounded ratio form
    from drmfuse._kernels import softmax_ratios
    q, _, _ = softmax_ratios(model.theta, data)
    for k in range(data.m):
        assert abs(q[:, k].sum() / data.n0 - 1.0) < 1e-8
    assert model.score_norm <= 1e-8 * data.n


def test_fit_monotone_ascent(rng, monkeypatch):
    # The fitter derives score and Hessian at every accepted iterate, and
    # otherwise only at float-stationary or polish candidates. Up to the last
    # derivation at the returned theta, the log-likelihood never drops by more
    # than the float-stationary tolerance of the acceptance rule.
    from drmfuse import likelihood
    data = make_fused(rng, sizes=(150, 120, 100))
    evaluated, visited = [], []
    loglik_parts, score_hessian = likelihood._loglik_parts, likelihood._score_hessian

    def recording_loglik(theta, data):
        out = loglik_parts(theta, data)
        evaluated.append((out[2], theta))
        return out

    def recording_derivatives(eta, logD, data, want_hessian=True):
        visited.append(next(th for e, th in evaluated if e is eta))
        return score_hessian(eta, logD, data, want_hessian)

    monkeypatch.setattr(likelihood, "_loglik_parts", recording_loglik)
    monkeypatch.setattr(likelihood, "_score_hessian", recording_derivatives)
    theta = _fit_core(data, FitOptions())[0]
    last = max(i for i, th in enumerate(visited) if th is theta)
    trace = np.array([profile_loglik(th, data) for th in visited[:last + 1]])
    assert trace.size > 2
    tol = 4 * EPS * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -tol)


def test_fit_evaluates_the_exponents_once_per_candidate(rng, monkeypatch):
    # one pass over the tilt exponents per Newton candidate (this fixture
    # needs no step halving), none to rederive an accepted iterate or the weights
    data = make_fused(rng, sizes=(250, 200, 150))
    calls = []
    eta_matrix = _kernels.eta_matrix

    def counting(theta, data):
        calls.append(theta)
        return eta_matrix(theta, data)

    monkeypatch.setattr(_kernels, "eta_matrix", counting)
    model = fit(data)
    assert model.iterations > 2
    assert len(calls) <= model.iterations + 2


def test_fit_label_equivariance(rng):
    ref = Sample.reference("r", rng.exponential(0.5, 150))
    a = Sample.neighbor("a", rng.gamma(2.0, 0.5, 120))
    b = Sample.neighbor("b", rng.lognormal(0.5, 0.8, 100))
    ta, tb = TiltSpec.parse("logx"), TiltSpec.parse("x,log2x")
    m1 = fit(validate([ref, a, b], [ta, tb]))
    m2 = fit(validate([ref, b, a], [tb, ta]))
    assert m1.theta.alpha[0] == pytest.approx(m2.theta.alpha[1], abs=1e-9)
    assert m1.theta.alpha[1] == pytest.approx(m2.theta.alpha[0], abs=1e-9)
    assert np.allclose(m1.theta.beta[0], m2.theta.beta[1], atol=1e-9)
    assert np.allclose(m1.theta.beta[1], m2.theta.beta[0], atol=1e-9)
    # weights agree as a function of the point value
    w1 = dict(zip(m1.data.t.tolist(), m1.weights.tolist()))
    w2 = dict(zip(m2.data.t.tolist(), m2.weights.tolist()))
    for t, w in w1.items():
        assert w == pytest.approx(w2[t], abs=1e-12)


def test_fit_units_reparameterization(rng):
    data = make_pair(rng, n0=150, n1=130, tilt="x")
    model = fit(data)
    c = 7.5
    scaled = validate(
        [Sample.reference("r", data.reference.values * c),
         Sample.neighbor("n", data.neighbors[0][0].values * c)],
        [TiltSpec.parse("x")],
    )
    model_c = fit(scaled)
    assert model_c.theta.beta[0][0] == pytest.approx(model.theta.beta[0][0] / c, rel=1e-7)
    assert np.allclose(model_c.weights, model.weights, atol=1e-10)


def test_fit_empty_tilt_pins_alpha(rng):
    ref = Sample.reference("r", rng.exponential(0.5, 200))
    same = Sample.neighbor("same", rng.exponential(0.5, 150))
    g = Sample.neighbor("g", rng.gamma(2.0, 0.5, 150))
    data = validate([ref, same, g], [TiltSpec(()), TiltSpec.parse("logx")])
    model = fit(data)
    assert model.theta.alpha[0] == 0.0
    assert model.theta.beta[0].size == 0
    assert abs(model.weights.sum() - 1.0) < 1e-10


def test_fit_degenerate_tilt_raises():
    data = validate(
        [Sample.reference("r", np.full(20, 3.0)), Sample.neighbor("n", np.full(15, 3.0))],
        [TiltSpec.parse("x")],
    )
    with pytest.raises(SingularHessian):
        fit(data)


def test_fit_no_convergence_when_budget_too_small(rng):
    data = make_fused(rng)
    with pytest.raises(NoConvergence) as exc:
        fit(data, FitOptions(max_iterations=2))
    assert exc.value.iterations == 2
    assert exc.value.last_score_norm > 0


def test_fit_initial_theta_and_options_validation(rng):
    data = make_pair(rng, tilt="x")
    warm = fit(data)
    again = fit(data, FitOptions(initial_theta=warm.theta))
    assert np.allclose(again.theta.flat, warm.theta.flat, atol=1e-9)
    with pytest.raises(ArityMismatch):
        FitOptions(grad_tol=0.0)
    with pytest.raises(ArityMismatch):
        FitOptions(max_iterations=0)
