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
    return _score_hessian(eta, logD, data)[0]


def hessian(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """Exact second derivative of l at the flat theta, (m+r)x(m+r), symmetric and <= 0."""
    logD, eta = log_denominators(_check_theta(theta, data), data)
    return _score_hessian(eta, logD, data)[1]


def _score_hessian(eta: np.ndarray, logD: np.ndarray, data: FusedData):
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


def fit(data: FusedData) -> FittedModel:
    """Maximize the profile log-likelihood; returns the fitted model.

    One damped Newton loop on the flat theta, with no options. Only the
    ``free`` coordinates move; the others stay pinned at 0. Each candidate
    costs one pass over the tilt exponents; score and Hessian are derived from
    it only when it can be accepted. While the score exceeds ``_GRAD_TOL * n``
    the loop ascends: it halves the step until l rises or the score shrinks,
    falling back to steepest ascent when the Newton direction is unusable.
    Below that it polishes: at most five full Newton steps, each kept only if
    it shrinks the score, so the weight and moment constraints hold well
    inside their tolerances; a polish step that fails ends the fit.

    Raises NoConvergence if the ascent stalls, SingularHessian for degenerate
    models (a tilt basis constant over the data), SingularMatrix when S is
    singular or ill-conditioned.

    The profile log-likelihood is the concave dual of the empirical
    likelihood, so the plug-in information is S = -H / n at the optimum
    (Qin 1998, Biometrika 85:619); it is taken from the final Newton Hessian.
    """
    _check_degenerate(data)
    n, free = data.n, data.free
    sub = np.ix_(free, free)
    theta = np.zeros(data.m + data.r)
    l, logD, eta = _loglik_parts(theta, data)
    s_full, H_full = _score_hessian(eta, logD, data)
    s, H = s_full[free], H_full[sub]
    sn = float(np.max(np.abs(s))) if s.size else 0.0
    iterations = polished = 0

    while sn > 64 * _EPS * n and polished < 5:
        polishing = sn <= _GRAD_TOL * n
        if not polishing and iterations >= _MAX_ITERATIONS:
            raise NoConvergence(iterations, sn)
        try:
            d = np.linalg.solve(-H, s)
            newton = np.isfinite(d).all() and d @ s > 0
        except np.linalg.LinAlgError:
            if polishing:
                break
            newton = False
        if not (newton or polishing):
            d = s / n  # steepest-ascent fallback
        for k in range(1 if polishing else _STEP_HALVING_MAX):
            cand = theta.copy()
            cand[free] += 0.5 ** k * d
            try:
                l2, logD2, eta2 = _loglik_parts(cand, data)
                if l2 < l - 4 * _EPS * max(1.0, abs(l)):
                    continue
                s2_full, H2_full = _score_hessian(eta2, logD2, data)
            except NonFinite:
                continue
            sn2 = float(np.max(np.abs(s2_full[free])))
            # the ascent takes a rise in l; a float-stationary l, or any polish
            # step, only if the step shrinks the score
            if sn2 < sn or (l2 > l and not polishing):
                break
        else:
            if polishing:
                break
            raise NoConvergence(iterations, sn)
        theta, l, logD, s_full, H_full = cand, l2, logD2, s2_full, H2_full
        s, H, sn = s_full[free], H_full[sub], sn2
        iterations += 1
        polished += polishing

    theta.flags.writeable = False
    S = -H_full / n
    return FittedModel(
        theta=theta,
        weights=fused_weights(logD, data),
        loglik=l,
        score_norm=float(np.max(np.abs(s_full))) if s_full.size else 0.0,
        iterations=iterations,
        S=S,
        Sigma=asymptotics.Sigma_matrix(S, data.rho),
        logD=logD,
        data=data,
    )
