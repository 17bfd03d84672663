"""Profile empirical log-likelihood, analytic derivatives, and the Newton fitter.

After eliminating the point masses with Lagrange multipliers, the fused-data
log-likelihood reduces to a concave function of theta = (alpha, beta):

    l(theta) = -sum_i log(n_0 sum_k rho_k w_k(t_i))
               + sum_k (n_k alpha_k + beta_k' sum_j h_k(X_kj))

with w_0 = 1 and log w_k(x) = (1, x, log x, log^2 x) c_k, where c_k holds
neighbor k's alpha_k (the constant's coefficient) and its betas, 0 off its
tilt; the linear term is ``FusedData.obs @ theta``. At the maximizer the point
masses are p_i = 1 / (n_0 sum_k rho_k w_k(t_i)) and the moment constraints
sum_i p_i = 1, sum_i p_i (w_k(t_i) - 1) = 0 hold automatically.
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
    """(l, logD, U) at the flat theta, from one pass over the tilt exponents."""
    logD, U = log_denominators(theta, data)
    value = float(-np.sum(logD) - data.n * np.log(data.n0) + data.obs @ theta)
    if not np.isfinite(value):
        raise NonFinite("profile log-likelihood")
    return value, logD, U


def score(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """Gradient of l at the flat theta, length m + r, in the same layout."""
    return _score_hessian(log_denominators(_check_theta(theta, data), data)[1], data)[0]


def hessian(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """Exact second derivative of l at the flat theta, (m+r)x(m+r), symmetric and <= 0."""
    return _score_hessian(log_denominators(_check_theta(theta, data), data)[1], data)[1]


def _score_hessian(U: np.ndarray, data: FusedData):
    """(s, H) from the ratios U = rho_k w_k / D of one theta."""
    # Psi_ij = u_{i,nbr[j]} x_{i,col[j]}; row 0 of G = X' Psi holds the column
    # sums of Psi, so the score is the observed statistic minus that row
    Psi = tilt_design(U, data)
    G = data.X.T @ Psi
    s = data.obs - G[0]
    if not np.isfinite(s).all():
        raise NonFinite("score")

    # d2 log D / d eta_k d eta_k' is the softmax covariance u_k (delta - u_k'),
    # so H = Psi' Psi minus, for each pair (j, j') of one neighbor,
    # X[:, col[j]]' Psi[:, j'] = G[col[j], j']
    H = Psi.T @ Psi
    H -= np.where(data.nbr[:, None] == data.nbr, G[data.col], 0.0)
    H = 0.5 * (H + H.T)   # exact symmetry despite BLAS rounding
    if not np.isfinite(H).all():
        raise NonFinite("hessian")
    return s, H


def _check_degenerate(data: FusedData):
    # Non-degeneracy: every basis function in use must vary over the fused data.
    m = data.m
    flat = np.ptp(data.X, axis=0)[data.col[m:]] < 1e-12   # the betas' columns
    if flat.any():
        j = m + int(np.argmax(flat))
        raise SingularHessian(
            f"tilt component {GLOBAL_TILT.basis[data.col[j] - 1].value!r} of neighbor "
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
    l, logD, U = _loglik_parts(theta, data)
    s_full, H_full = _score_hessian(U, data)
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
                l2, logD2, U2 = _loglik_parts(cand, data)
                if l2 < l - 4 * _EPS * max(1.0, abs(l)):
                    continue
                s2_full, H2_full = _score_hessian(U2, data)
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
        theta, l, logD, U, s_full, H_full = cand, l2, logD2, U2, s2_full, H2_full
        s, H, sn = s_full[free], H_full[sub], sn2
        iterations += 1
        polished += polishing

    theta.flags.writeable = U.flags.writeable = False
    S = -H_full / n
    return FittedModel(
        theta=theta,
        weights=fused_weights(logD, data),
        loglik=l,
        score_norm=float(np.max(np.abs(s_full))) if s_full.size else 0.0,
        iterations=iterations,
        S=S,
        Sigma=asymptotics.Sigma_matrix(S, data.rho),
        U=U,
        data=data,
    )
