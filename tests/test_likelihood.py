import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from drmfuse import (
    ArityMismatch,
    GLOBAL_TILT,
    NoConvergence,
    NonFinite,
    Sample,
    SingularHessian,
    TiltSpec,
    fit,
    hessian,
    profile_loglik,
    score,
    validate,
)
from drmfuse.core import basis_matrix
from drmfuse import _kernels, likelihood
from drmfuse.simulation import REFINED_TILTS, UNIFORM_TILTS, generate

import blocks_oracle
import newton_oracle
from conftest import make_fused, make_pair

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# basis_matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tilt, x, expected", [
    ("x,logx,log2x", 1.0, [1.0, 0.0, 0.0]),
    ("x,log2x", math.e, [math.e, 1.0]),
    ("logx", 2.0, [math.log(2.0)]),
], ids=["at_one", "at_e", "log2"])
def test_basis_matrix_values(tilt, x, expected):
    assert np.allclose(basis_matrix(np.array([x]), TiltSpec.parse(tilt))[0], expected)


# ---------------------------------------------------------------------------
# profile_loglik
# ---------------------------------------------------------------------------

def test_loglik_no_neighbors():
    data = validate([Sample.reference("r", [1.0, 2.0, 3.0, 4.0])], [])
    assert profile_loglik(np.zeros(0), data) == pytest.approx(-4 * math.log(4), rel=1e-14)


def test_loglik_at_zero_is_minus_n_log_n(rng):
    data = make_fused(rng)
    n = data.n
    got = profile_loglik(np.zeros(data.m + data.r), data)
    assert got == pytest.approx(-n * math.log(n), rel=1e-13)


def test_loglik_matches_independent_reimplementation(rng):
    # direct transcription of the closed form with raw exps and python loops
    data = make_pair(rng, n0=5, n1=5, tilt="x")
    theta = np.array([0.2, -0.3])

    def naive(alpha, beta):
        rho = [1.0, data.n_k[1] / data.n_k[0]]
        total = 0.0
        for t in data.t:
            total -= math.log(data.n0 * (rho[0] + rho[1] * math.exp(alpha + beta * t)))
        total += data.n_k[1] * alpha
        total += beta * sum(data.neighbors[0][0].values)
        return total

    assert profile_loglik(theta, data) == pytest.approx(naive(0.2, -0.3), abs=1e-12)


def test_check_theta_shape_mismatch(rng):
    data = make_pair(rng, tilt="x,logx,log2x")   # m + r = 4
    for f in (profile_loglik, score, hessian):
        for theta in (np.zeros(3), np.zeros(5), np.zeros((1, 4)), 0.0):
            with pytest.raises(ArityMismatch):
                f(theta, data)


def test_check_theta_pins_empty_tilt_alpha(rng):
    data = make_fused(rng, tilts=("-", "x"))   # theta = (alpha_1, alpha_2, beta_2)
    for f in (profile_loglik, score, hessian):
        with pytest.raises(ArityMismatch):
            f(np.array([0.3, 0.1, 0.2]), data)
        f(np.array([0.0, 0.1, 0.2]), data)     # pinned at exactly 0 is fine


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
    full = np.column_stack([np.zeros(data.n), eta])   # a copy: the kernel overwrites eta
    monkeypatch.setattr(_kernels, "eta_matrix", lambda theta, data: eta)
    logD, U = _kernels.log_denominators(np.zeros(data.m + data.r), data)
    ref = logsumexp(full, axis=1, b=np.broadcast_to(data.rho, full.shape))
    assert np.all(np.abs(logD - ref) <= 1e-13 * np.abs(ref))
    # the ratios rho_k w_k / D, from the same rows; relative where the oracle
    # is a normal float, absolute by the smallest one below it
    U_ref = data.rho[1:] * np.exp(full[:, 1:] - ref[:, None])
    tiny = np.finfo(float).tiny
    assert U.shape == (data.n, data.m)
    assert np.all(np.abs(U - U_ref) <= 5e-13 * U_ref + tiny)


def test_log_denominators_reject_non_finite_exponents(rng):
    data = make_pair(rng, tilt="x")
    for bad in (np.inf, np.nan):
        with pytest.raises(NonFinite, match="tilt exponents"):
            _kernels.log_denominators(np.array([bad, 0.0]), data)


def test_tilt_arrays_are_column_major(rng):
    data = make_fused(rng)
    m = data.m
    assert m >= 2
    assert data.X.flags.f_contiguous and not data.X.flags.writeable
    for a in (data.nbr, data.col, data.obs, data.free):
        assert not a.flags.writeable
    # alpha_k is the coefficient of neighbor k's constant column
    assert data.X.shape == (data.n, 4) and np.all(data.X[:, 0] == 1.0)
    assert np.array_equal(data.nbr[:m], np.arange(m)) and np.all(data.col[:m] == 0)
    assert np.array_equal(data.obs[:m], data.n_k[1:])
    assert data.r == sum(spec.r for _, spec in data.neighbors) == data.nbr.size - m
    empty = make_fused(rng, tilts=("", "x"))
    assert (empty.r, empty.nbr.size) == (1, 3)
    assert np.array_equal(empty.obs[:2], empty.n_k[1:])
    assert validate([data.reference], []).r == 0
    eta = _kernels.eta_matrix(rng.normal(0, 0.1, data.m + data.r), data)
    assert eta.flags.f_contiguous
    assert _kernels.tilt_design(np.exp(eta), data).flags.f_contiguous


# ---------------------------------------------------------------------------
# score / hessian: the per-neighbor oracle and finite differences
# ---------------------------------------------------------------------------

def _tied(data):
    """``data`` with its values rounded to 0.1 (plus 0.1, to stay positive), so
    every value is repeated across and within samples."""
    vals = np.round(data.t, 1) + 0.1
    ref, *nbs = np.split(vals, np.cumsum(data.n_k)[:-1].astype(int))
    return validate([Sample.reference("r", ref)]
                    + [Sample.neighbor(f"n{k}", v) for k, v in enumerate(nbs)],
                    [spec for _, spec in data.neighbors])


@pytest.mark.parametrize("tilts", [("x,logx,log2x", "x,logx,log2x"), ("logx", "x"),
                                   ("", "x,log2x"), ("x,log2x", "")])
@pytest.mark.parametrize("tied", [False, True])
def test_score_hessian_match_per_neighbor_oracle(rng, tilts, tied):
    data = make_fused(rng, tilts=tilts)
    if tied:
        data = _tied(data)
    tilted = np.array([spec.r > 0 for _, spec in data.neighbors])
    for _ in range(3):
        theta = rng.normal(0, 0.2, data.m + data.r)
        theta[:data.m] *= tilted   # an empty tilt pins alpha at 0
        s_ref, H_ref = blocks_oracle.score_hessian(theta, data)
        s, H = score(theta, data), hessian(theta, data)
        assert np.max(np.abs(s - s_ref)) <= 1e-12 * np.max(np.abs(s_ref))
        assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))


def _fd_score(theta, data, h=1e-6):
    out = np.empty(theta.size)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (profile_loglik(up, data) - profile_loglik(dn, data)) / (2 * h)
    return out


def _fd_hessian(theta, data, h=1e-6):
    out = np.empty((theta.size, theta.size))
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        out[:, j] = (score(up, data) - score(dn, data)) / (2 * h)
    return out


def test_score_matches_finite_differences(rng):
    data = make_fused(rng, sizes=(60, 50, 40))
    theta = rng.normal(0, 0.1, data.m + data.r)
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
    s = score(np.zeros(data.m + data.r), data)
    assert abs(s[0]) < 1e-12


def test_hessian_symmetric_and_matches_finite_differences(rng):
    data = make_fused(rng, sizes=(60, 50, 40))
    theta = rng.normal(0, 0.1, data.m + data.r)
    H = hessian(theta, data)
    assert np.array_equal(H, H.T)
    fd = _fd_hessian(theta, data)
    denom = np.maximum(1.0, np.abs(fd))
    assert np.max(np.abs(H - fd) / denom) < 1e-5


def test_hessian_negative_semidefinite(rng):
    data = make_fused(rng)
    theta = rng.normal(0, 0.2, data.m + data.r)
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
    alpha, beta = model.theta   # m = 1, tilt (x)
    assert abs(beta) <= 1e-6
    assert abs(alpha) <= 1e-6


def test_fit_matches_derivative_free_optimizer(rng):
    data = make_pair(rng, n0=40, n1=35, tilt="x")
    model = fit(data)

    def negl(v):
        return -profile_loglik(v, data)

    res = minimize(negl, np.zeros(2), method="Nelder-Mead",
                   options=dict(xatol=1e-10, fatol=1e-14, maxiter=100_000, maxfev=100_000))
    assert np.max(np.abs(res.x - model.theta)) < 1e-6


def test_fit_constraints_hold_at_optimum(rng):
    data = make_fused(rng, sizes=(250, 200, 150))
    model = fit(data)
    assert abs(model.weights.sum() - 1.0) < 1e-10
    assert (model.weights > 0).all()
    # sum_i p_i w_k(t_i) = 1 for every neighbor, via the bounded ratio form
    logD = -np.log(data.n0 * model.weights)   # log D_i = -log(n0 p_i)
    q = np.exp(_kernels.eta_matrix(model.theta, data) - logD[:, None])
    for k in range(data.m):
        assert abs(q[:, k].sum() / data.n0 - 1.0) < 1e-8
    assert model.score_norm <= 1e-8 * data.n


def test_fit_monotone_ascent(rng, monkeypatch):
    # The fitter derives score and Hessian at every accepted iterate, and
    # otherwise only at float-stationary or polish candidates. Up to the last
    # derivation at the returned theta, the log-likelihood never drops by more
    # than the float-stationary tolerance of the acceptance rule.
    data = make_fused(rng, sizes=(150, 120, 100))
    evaluated, visited = [], []
    loglik_parts, score_hessian = likelihood._loglik_parts, likelihood._score_hessian

    def recording_loglik(theta, data):
        out = loglik_parts(theta, data)
        evaluated.append((out[2], theta))   # the ratios U of this candidate
        return out

    def recording_derivatives(U, data):
        visited.append(next(th for u, th in evaluated if u is U))
        return score_hessian(U, data)

    monkeypatch.setattr(likelihood, "_loglik_parts", recording_loglik)
    monkeypatch.setattr(likelihood, "_score_hessian", recording_derivatives)
    theta = fit(data).theta
    last = max(i for i, th in enumerate(visited) if th is theta)
    trace = np.array([profile_loglik(th, data) for th in visited[:last + 1]])
    assert trace.size > 2
    tol = 4 * EPS * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -tol)


def _parity_cases():
    rng = np.random.default_rng(31)
    for seed in range(8):
        samples = generate(seed, (1000, 1000, 1000))
        for tilts in (UNIFORM_TILTS, REFINED_TILTS):
            yield f"generate-{seed}-{tilts[0].format()}", validate(list(samples), list(tilts))
    # in units 100 times larger the score stalls above the polish target, so
    # the polish rejects candidates, some of which still raise l
    ref, *nbs = generate(0, (150, 120, 100))
    yield "units-x100", validate([Sample.reference(ref.label, 100 * ref.values)]
                                 + [Sample.neighbor(nb.label, 100 * nb.values) for nb in nbs],
                                 list(REFINED_TILTS))
    yield "pair-global", make_pair(rng, tilt="x,logx,log2x")
    ref = Sample.reference("r", rng.exponential(0.5, 2500))
    nbs = [Sample.neighbor("g2", rng.gamma(2.0, 0.5, 2500)),
           Sample.neighbor("ln", rng.lognormal(0.0, 0.8, 2500)),
           Sample.neighbor("e", rng.exponential(0.7, 2500)),
           Sample.neighbor("g3", rng.gamma(3.0, 0.3, 2500))]
    yield "m4-5x2500", validate([ref, *nbs], [GLOBAL_TILT] * 4)
    yield "empty-tilt", make_fused(rng, tilts=("", "x,log2x"))
    yield "tied-0.1", _tied(make_fused(rng))


def test_fit_matches_two_loop_oracle():
    # the one-loop fitter against the ascent-then-polish route it replaced:
    # same iterations, bit-identical theta, l, score norm, S, weights and U
    for name, data in _parity_cases():
        model = fit(data)
        theta, loglik, iterations, score_norm, H, logD, U = newton_oracle.fit_core(data)
        assert model.iterations == iterations, name
        assert model.theta.tobytes() == theta.tobytes(), name
        assert (model.loglik, model.score_norm) == (loglik, score_norm), name
        assert model.S.tobytes() == (-H / data.n).tobytes(), name
        assert model.weights.tobytes() == _kernels.fused_weights(logD, data).tobytes(), name
        assert model.U.tobytes() == U.tobytes(), name


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
    (a1, b1), (a2, b2) = blocks_oracle.split_theta(m1.theta, m1.data)
    (c1, d1), (c2, d2) = blocks_oracle.split_theta(m2.theta, m2.data)
    assert a1 == pytest.approx(c2, abs=1e-9)
    assert a2 == pytest.approx(c1, abs=1e-9)
    assert np.allclose(b1, d2, atol=1e-9)
    assert np.allclose(b2, d1, atol=1e-9)
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
    (_, beta), = blocks_oracle.split_theta(model.theta, data)
    (_, beta_c), = blocks_oracle.split_theta(model_c.theta, scaled)
    assert beta_c[0] == pytest.approx(beta[0] / c, rel=1e-7)
    assert np.allclose(model_c.weights, model.weights, atol=1e-10)


def test_fit_empty_tilt_pins_alpha(rng):
    ref = Sample.reference("r", rng.exponential(0.5, 200))
    same = Sample.neighbor("same", rng.exponential(0.5, 150))
    g = Sample.neighbor("g", rng.gamma(2.0, 0.5, 150))
    data = validate([ref, same, g], [TiltSpec(()), TiltSpec.parse("logx")])
    model = fit(data)
    alpha, beta = blocks_oracle.split_theta(model.theta, data)[0]
    assert alpha == 0.0
    assert beta.size == 0
    assert not model.theta.flags.writeable
    assert abs(model.weights.sum() - 1.0) < 1e-10


def test_fit_degenerate_tilt_raises():
    data = validate(
        [Sample.reference("r", np.full(20, 3.0)), Sample.neighbor("n", np.full(15, 3.0))],
        [TiltSpec.parse("x")],
    )
    with pytest.raises(SingularHessian):
        fit(data)


def test_fit_no_convergence_when_budget_too_small(rng, monkeypatch):
    data = make_fused(rng)
    monkeypatch.setattr(likelihood, "_MAX_ITERATIONS", 2)
    with pytest.raises(NoConvergence) as exc:
        fit(data)
    assert exc.value.iterations == 2
    assert exc.value.last_score_norm > 0

