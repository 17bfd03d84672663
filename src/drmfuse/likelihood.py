"""Profile empirical log-likelihood, analytic derivatives, and the Newton fitter.

After eliminating the point masses with Lagrange multipliers, the fused-data
log-likelihood reduces to a concave function of theta = (alpha, beta):

    l(theta) = -sum_i log(n_0 sum_k rho_k w_k(t_i))
               + sum_k (n_k alpha_k + beta_k' sum_j h_k(X_kj))

with w_0 = 1 and w_k = exp(alpha_k + beta_k' h_k(.)); the linear term is
``FusedData.obs`` times the flat theta. At the maximizer the
point masses are p_i = 1 / (n_0 sum_k rho_k w_k(t_i)) and the moment
constraints sum_i p_i = 1, sum_i p_i (w_k(t_i) - 1) = 0 hold automatically.
"""

from __future__ import annotations

import numpy as np

from . import asymptotics
from ._kernels import fused_weights, log_denominators, tilt_design
from .core import (
    ArityMismatch,
    FittedModel,
    FusedData,
    GLOBAL_TILT,
    NoConvergence,
    NonFinite,
    SingularHessian,
)

_EPS = np.finfo(float).eps
_MAX_ITERATIONS = 200
_GRAD_TOL = 1e-8          # on ||score||_inf, scaled by n
_STEP_HALVING_MAX = 40


def _check_theta(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """The flat theta as a float array; ArityMismatch unless it has length
    m + r and is 0 outside ``data.free`` (an empty tilt pins its alpha)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (data.m + data.r,):
        raise ArityMismatch(
            f"theta has shape {theta.shape}, expected ({data.m + data.r},) for the fused data"
        )
    if np.delete(theta, data.free).any():
        raise ArityMismatch("theta is nonzero at the alpha of an empty tilt, which is pinned at 0")
    return theta


def profile_loglik(theta: np.ndarray, data: FusedData) -> float:
    """l(theta) at the flat theta; raises NonFinite if tilt exponents are not finite."""
    return _loglik_parts(_check_theta(theta, data), data)[0]


def _loglik_parts(theta: np.ndarray, data: FusedData):
    """(l, logD, eta) at the flat theta, from one pass over the tilt exponents."""
    logD, eta = log_denominators(theta, data)
    value = float(-np.sum(logD) - data.n * np.log(data.n0) + data.obs @ theta)
    if not np.isfinite(value):
        raise NonFinite("profile log-likelihood")
    return value, logD, eta


def score(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """Gradient of l at the flat theta, length m + r, in the same layout."""
    logD, eta = log_denominators(_check_theta(theta, data), data)
    s, _ = _score_hessian(eta, logD, data, want_hessian=False)
    return s


def hessian(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """Exact second derivative of l at the flat theta, (m+r)x(m+r), symmetric and <= 0."""
    logD, eta = log_denominators(_check_theta(theta, data), data)
    _, H = _score_hessian(eta, logD, data, want_hessian=True)
    return H


def _score_hessian(eta: np.ndarray, logD: np.ndarray, data: FusedData,
                   want_hessian: bool = True):
    """(s, H) from the tilt exponents and log-denominators of one theta."""
    m, nbr = data.m, data.nbr
    U = data.rho[1:] * np.exp(eta - logD[:, None])   # u_{ik} = rho_k w_k / D, in (0, 1)
    # Psi_i = (u_i, u_{i,nbr} x_{i,col}); the score is the observed statistic
    # minus its column sums
    Psi = tilt_design(U, data)
    colsum = Psi.sum(axis=0)
    s = data.obs - colsum
    if not np.isfinite(s).all():
        raise NonFinite("score")
    if not want_hessian:
        return s, None

    # d2 log D / d eta_k d eta_k' is the softmax covariance u_k (delta - u_k'),
    # so H = Psi' Psi - sum_k G_k' diag(u_k) G_k, with G_k = (1, h_k) and h_k
    # the columns of X that neighbor k uses. The correction's entries with an
    # alpha are column sums of Psi; a beta pair (j, j') of one neighbor takes
    # X[:, col[j]]' Psi[:, m + j'].
    H = Psi.T @ Psi
    a, b = np.arange(m), np.arange(m, m + data.r)
    H[a, a] -= colsum[:m]
    H[nbr, b] -= colsum[m:]
    H[b, nbr] -= colsum[m:]
    H[m:, m:] -= np.where(nbr[:, None] == nbr, (data.X.T @ Psi[:, m:])[data.col], 0.0)
    H = 0.5 * (H + H.T)   # exact symmetry despite BLAS rounding
    if not np.isfinite(H).all():
        raise NonFinite("hessian")
    return s, H


def _check_degenerate(data: FusedData):
    # Non-degeneracy: every basis function in use must vary over the fused data.
    flat = np.ptp(data.X, axis=0)[data.col] < 1e-12
    if flat.any():
        j = int(np.argmax(flat))
        raise SingularHessian(
            f"tilt component {GLOBAL_TILT.basis[data.col[j]].value!r} of neighbor "
            f"{data.neighbors[data.nbr[j]][0].label!r} is constant over the fused data"
        )


def _fit_core(data: FusedData):
    """Newton ascent with step halving on the flat theta.

    Returns (theta, loglik, iters, score_norm, H, logD), with the full Hessian
    and the log-denominators at the returned flat theta. Only the ``free``
    coordinates move; the others stay pinned at 0. Each candidate costs one
    pass over the tilt exponents; score and Hessian are derived from it only
    when the candidate can be accepted. A short polish phase pushes the score
    toward machine precision so the weight and moment constraints hold well
    inside their tolerances.
    """
    n, free = data.n, data.free
    sub = np.ix_(free, free)
    theta = np.zeros(data.m + data.r)

    l, logD, eta = _loglik_parts(theta, data)
    s_full, H_full = _score_hessian(eta, logD, data)
    s = s_full[free]
    H = H_full[sub]
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
    while sn > _GRAD_TOL * n:
        if iterations >= _MAX_ITERATIONS:
            raise NoConvergence(iterations, sn)
        d = direction()
        lam = 1.0
        accepted = False
        for _ in range(_STEP_HALVING_MAX):
            cand = theta.copy()
            cand[free] += lam * d
            try:
                l2, logD2, eta2 = _loglik_parts(cand, data)
            except NonFinite:
                lam *= 0.5
                continue
            if l2 >= l - 4 * _EPS * max(1.0, abs(l)):
                # an ascent is accepted; a float-stationary l only if the step
                # still shrinks the score
                s2_full, H2_full = _score_hessian(eta2, logD2, data)
                if l2 > l or np.max(np.abs(s2_full[free])) < sn:
                    theta, l, logD = cand, l2, logD2
                    s_full, H_full = s2_full, H2_full
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise NoConvergence(iterations, sn)
        iterations += 1
        s = s_full[free]
        H = H_full[sub]
        sn = float(np.max(np.abs(s)))

    # Polish: a few full Newton steps so constraint residuals reach ~1e-12 * n.
    for _ in range(5):
        if sn <= 64 * _EPS * n or not s.size:
            break
        try:
            d = np.linalg.solve(-H, s)
        except np.linalg.LinAlgError:
            break
        cand = theta.copy()
        cand[free] += d
        try:
            l2, logD2, eta2 = _loglik_parts(cand, data)
            s2_full, H2_full = _score_hessian(eta2, logD2, data)
        except NonFinite:
            break
        sn2 = float(np.max(np.abs(s2_full[free])))
        if l2 < l - 4 * _EPS * max(1.0, abs(l)) or sn2 >= sn:
            break
        theta, l, logD = cand, l2, logD2
        s_full, H_full = s2_full, H2_full
        s = s_full[free]
        H = H_full[sub]
        sn = sn2
        iterations += 1

    score_norm = float(np.max(np.abs(s_full))) if s_full.size else 0.0
    return theta, l, iterations, score_norm, H_full, logD


def fit(data: FusedData) -> FittedModel:
    """Maximize the profile log-likelihood; returns the fitted model.

    Raises NoConvergence if the Newton iteration stalls, SingularHessian for
    degenerate models (a tilt basis constant over the data), SingularMatrix
    when S is singular or ill-conditioned.

    The profile log-likelihood is the concave dual of the empirical
    likelihood, so the plug-in information is S = -H / n at the optimum
    (Qin 1998, Biometrika 85:619); it is taken from the final Newton Hessian.
    """
    _check_degenerate(data)
    theta, loglik, iterations, score_norm, H, logD = _fit_core(data)
    S = -H / data.n
    theta.flags.writeable = False
    return FittedModel(
        theta=theta,
        weights=fused_weights(logD, data),
        loglik=loglik,
        score_norm=score_norm,
        iterations=iterations,
        S=S,
        Sigma=asymptotics.Sigma_matrix(S, data.rho),
        logD=logD,
        data=data,
    )
