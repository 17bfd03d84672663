"""Profile empirical log-likelihood, analytic derivatives, and the Newton fitter.

After eliminating the point masses with Lagrange multipliers, the fused-data
log-likelihood reduces to a concave function of theta = (alpha, beta):

    l(theta) = -sum_i log(n_0 sum_k rho_k w_k(t_i))
               + sum_k (n_k alpha_k + beta_k' sum_j h_k(X_kj))

with w_0 = 1 and w_k = exp(alpha_k + beta_k' h_k(.)). At the maximizer the
point masses are p_i = 1 / (n_0 sum_k rho_k w_k(t_i)) and the moment
constraints sum_i p_i = 1, sum_i p_i (w_k(t_i) - 1) = 0 hold automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import asymptotics
from ._kernels import fused_weights, log_denominators, tilt_design
from .core import (
    ArityMismatch,
    FittedModel,
    FusedData,
    NoConvergence,
    NonFinite,
    SingularHessian,
    Theta,
    TiltSpec,
    basis_matrix,
)

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    grad_tol: float = 1e-8          # on ||score||_inf, scaled by n
    step_halving_max: int = 40
    initial_theta: Theta | None = None

    def __post_init__(self):
        if self.max_iterations <= 0 or self.step_halving_max <= 0:
            raise ArityMismatch("iteration limits must be positive")
        if not self.grad_tol > 0:
            raise ArityMismatch("grad_tol must be positive")


def tilt_value(spec: TiltSpec, x: float) -> np.ndarray:
    """Evaluate a tilt's basis functions at one positive point."""
    return basis_matrix(np.asarray([x], dtype=float), spec)[0]


def _check_theta(theta: Theta, data: FusedData):
    if not theta.matches(data):
        raise ArityMismatch("theta dimensions do not match the fused data's tilts")


def profile_loglik(theta: Theta, data: FusedData) -> float:
    """l(theta); raises NonFinite if tilt exponents are not finite."""
    _check_theta(theta, data)
    return _loglik_parts(theta, data)[0]


def _loglik_parts(theta: Theta, data: FusedData):
    """(l, logD, eta) at theta, from one pass over the tilt exponents."""
    logD, eta = log_denominators(theta, data)
    lin = 0.0
    for k in range(data.m):
        lin += data.n_k[k + 1] * theta.alpha[k]
        if theta.beta[k].size:
            lin += theta.beta[k] @ data.suff[k]
    value = float(-np.sum(logD) - data.n * np.log(data.n0) + lin)
    if not np.isfinite(value):
        raise NonFinite("profile log-likelihood")
    return value, logD, eta


def score(theta: Theta, data: FusedData) -> np.ndarray:
    """Gradient of l, length m + r (alpha block, then beta blocks)."""
    _check_theta(theta, data)
    logD, eta = log_denominators(theta, data)
    s, _ = _score_hessian(eta, logD, data, want_hessian=False)
    return s


def hessian(theta: Theta, data: FusedData) -> np.ndarray:
    """Exact second derivative of l, (m+r)x(m+r), symmetric and <= 0."""
    _check_theta(theta, data)
    logD, eta = log_denominators(theta, data)
    _, H = _score_hessian(eta, logD, data, want_hessian=True)
    return H


def _score_hessian(eta: np.ndarray, logD: np.ndarray, data: FusedData,
                   want_hessian: bool = True):
    """(s, H) from the tilt exponents and log-denominators of one theta."""
    m, offs = data.m, data.beta_offsets
    U = data.rho[1:] * np.exp(eta - logD[:, None])   # u_{ik} = rho_k w_k / D, in (0, 1)
    # Psi_i = (u_1, ..., u_m, u_1 h_1', ..., u_m h_m'); the score is the
    # observed (n_k, suff_k) minus its column sums
    Psi = tilt_design(U, data)
    colsum = Psi.sum(axis=0)
    s = np.concatenate([data.n_k[1:], *data.suff]) - colsum
    if not np.isfinite(s).all():
        raise NonFinite("score")
    if not want_hessian:
        return s, None

    # d2 log D / d eta_k d eta_k' is the softmax covariance u_k (delta - u_k'),
    # so H = Psi' Psi - blockdiag(G_k' diag(u_k) G_k) with G_k = (1, h_k); the
    # block's first row and column are column sums of Psi, the rest h_k' Psi[:, b].
    H = Psi.T @ Psi
    for k in range(m):
        b = slice(m + offs[k], m + offs[k + 1])
        H[k, k] -= colsum[k]
        H[k, b] -= colsum[b]
        H[b, k] -= colsum[b]
        H[b, b] -= data.basis[k].T @ Psi[:, b]
    H = 0.5 * (H + H.T)   # exact symmetry despite BLAS rounding
    if not np.isfinite(H).all():
        raise NonFinite("hessian")
    return s, H


def _check_degenerate(data: FusedData):
    # Non-degeneracy: every basis function must vary over the fused data.
    for k in range(data.m):
        for j, b in enumerate(data.neighbors[k][1].basis):
            col = data.basis[k][:, j]
            if np.ptp(col) < 1e-12:
                raise SingularHessian(
                    f"tilt component {b.value!r} of neighbor "
                    f"{data.neighbors[k][0].label!r} is constant over the fused data"
                )


def _embed(free_vec: np.ndarray, free_idx: np.ndarray, dims: tuple[int, ...]) -> Theta:
    full = np.zeros(len(dims) + sum(dims))
    full[free_idx] = free_vec
    return Theta.from_flat(full, dims)


def _fit_core(data: FusedData, opts: FitOptions):
    """Newton ascent with step halving.

    Returns (theta, loglik, iters, score_norm, H, logD), with the full Hessian
    and the log-denominators at the returned theta. Each candidate costs one
    pass over the tilt exponents; score and Hessian are derived from it only
    when the candidate can be accepted. A short polish phase pushes the score
    toward machine precision so the weight and moment constraints hold well
    inside their tolerances.
    """
    m, n = data.m, data.n
    dims = data.dims
    p = m + data.r
    # alpha_k of an empty-tilt neighbor is pinned at 0 (forced by its constraint)
    free_alpha = np.flatnonzero(data.alpha_free)
    free_idx = np.concatenate([free_alpha, np.arange(m, p)]).astype(int)

    if opts.initial_theta is not None:
        theta = opts.initial_theta
        _check_theta(theta, data)
    else:
        theta = Theta.zeros(dims)

    l, logD, eta = _loglik_parts(theta, data)
    s_full, H_full = _score_hessian(eta, logD, data)
    s = s_full[free_idx]
    H = H_full[np.ix_(free_idx, free_idx)]
    iterations = 0

    def direction():
        try:
            d = np.linalg.solve(-H, s)
            if np.isfinite(d).all() and d @ s > 0:
                return d
        except np.linalg.LinAlgError:
            pass
        return s / n  # steepest-ascent fallback

    sn = float(np.max(np.abs(s))) if s.size else 0.0
    while sn > opts.grad_tol * n:
        if iterations >= opts.max_iterations:
            raise NoConvergence(iterations, sn)
        d = direction()
        lam = 1.0
        accepted = False
        for _ in range(opts.step_halving_max):
            cand = _embed(theta.flat[free_idx] + lam * d, free_idx, dims)
            try:
                l2, logD2, eta2 = _loglik_parts(cand, data)
            except NonFinite:
                lam *= 0.5
                continue
            if l2 >= l - 4 * _EPS * max(1.0, abs(l)):
                # an ascent is accepted; a float-stationary l only if the step
                # still shrinks the score
                s2_full, H2_full = _score_hessian(eta2, logD2, data)
                if l2 > l or np.max(np.abs(s2_full[free_idx])) < sn:
                    theta, l, logD = cand, l2, logD2
                    s_full, H_full = s2_full, H2_full
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise NoConvergence(iterations, sn)
        iterations += 1
        s = s_full[free_idx]
        H = H_full[np.ix_(free_idx, free_idx)]
        sn = float(np.max(np.abs(s)))

    # Polish: a few full Newton steps so constraint residuals reach ~1e-12 * n.
    for _ in range(5):
        if sn <= 64 * _EPS * n or not s.size:
            break
        try:
            d = np.linalg.solve(-H, s)
        except np.linalg.LinAlgError:
            break
        cand = _embed(theta.flat[free_idx] + d, free_idx, dims)
        try:
            l2, logD2, eta2 = _loglik_parts(cand, data)
            s2_full, H2_full = _score_hessian(eta2, logD2, data)
        except NonFinite:
            break
        sn2 = float(np.max(np.abs(s2_full[free_idx])))
        if l2 < l - 4 * _EPS * max(1.0, abs(l)) or sn2 >= sn:
            break
        theta, l, logD = cand, l2, logD2
        s_full, H_full = s2_full, H2_full
        s = s_full[free_idx]
        H = H_full[np.ix_(free_idx, free_idx)]
        sn = sn2
        iterations += 1

    score_norm = float(np.max(np.abs(s_full))) if s_full.size else 0.0
    return theta, l, iterations, score_norm, H_full, logD


def fit(data: FusedData, opts: FitOptions | None = None) -> FittedModel:
    """Maximize the profile log-likelihood; returns the fitted model.

    Raises NoConvergence if the Newton iteration stalls, SingularHessian for
    degenerate models (a tilt basis constant over the data), SingularMatrix
    when S is singular or ill-conditioned.

    The profile log-likelihood is the concave dual of the empirical
    likelihood, so the plug-in information is S = -H / n at the optimum
    (Qin 1998, Biometrika 85:619); it is taken from the final Newton Hessian.
    """
    opts = opts or FitOptions()
    _check_degenerate(data)
    theta, loglik, iterations, score_norm, H, logD = _fit_core(data, opts)
    weights = fused_weights(logD, data)
    S = -H / data.n
    Sigma = asymptotics.Sigma_matrix(S, data.rho)
    return FittedModel(
        theta=theta,
        weights=weights,
        loglik=loglik,
        score_norm=score_norm,
        iterations=iterations,
        S=S,
        Sigma=Sigma,
        data=data,
    )
