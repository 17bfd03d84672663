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
from ._kernels import log_denominators, tilt_design
from .core import (
    ArityMismatch,
    FittedModel,
    FusedData,
    GLOBAL_TILT,
    InputError,
    NoConvergence,
    NonFinite,
    SingularHessian,
)

_EPS = np.finfo(float).eps
_MAX_ITERATIONS = 200
_GRAD_TOL = 1e-8          # on ||score||_inf, scaled by n
_STEP_HALVING_MAX = 40


def _check_theta(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """The flat theta as a float array; ArityMismatch unless it is numeric,
    has length m + r and is 0 outside ``data.free`` (an empty tilt pins its
    alpha)."""
    try:
        theta = np.asarray(theta, dtype=float)
    except (TypeError, ValueError):
        raise ArityMismatch(f"theta must be numeric, got a {type(theta).__name__}") from None
    if theta.shape != (data.m + data.r,):
        raise ArityMismatch(
            f"theta has shape {theta.shape}, expected ({data.m + data.r},) for the fused data"
        )
    if np.delete(theta, data.free).any():
        raise ArityMismatch("theta is nonzero at the alpha of an empty tilt, which is pinned at 0")
    return theta


def _loglik_parts(theta: np.ndarray, data: FusedData):
    """(l, logD, U) at the flat theta, from one pass over the tilt exponents."""
    logD, U = log_denominators(theta, data)
    value = float(-logD.sum() - data.n * np.log(data.n0) + data.obs @ theta)
    if not np.isfinite(value):
        raise NonFinite("profile log-likelihood")
    return value, logD, U


def _derivative_buffer(data: FusedData) -> np.ndarray:
    """Z = [X | Psi] for ``_score_hessian``: column-major, shape (n, c + m + r)
    with X's c columns filled in and the Psi block left to each call.

    Z starts on a 64-byte boundary, which malloc does not promise: at n = 3000
    the product Z' Psi took ~1.5x as long from an offset of 8, 16 or 32 bytes.
    """
    c = data.X.shape[1]
    size = data.n * (c + len(data.pairs))
    flat = np.empty(size + 7)   # numpy aligns float64 data to 8 bytes at least
    skip = -flat.ctypes.data % 64 // 8
    Z = flat[skip:skip + size].reshape((data.n, -1), order="F")
    Z[:, :c] = data.X
    return Z


def _score_hessian(U: np.ndarray, data: FusedData, Z: np.ndarray):
    """(s, H) from the ratios U = rho_k w_k / D of one theta. ``Z`` is a
    buffer from ``_derivative_buffer(data)``; its Psi block is overwritten."""
    # Psi_ij = u_{i,nbr[j]} x_{i,col[j]}, written beside X in Z = [X | Psi], so
    # one product Z' Psi gives G = X' Psi and Psi' Psi. Psi.T @ Psi would pass
    # numpy one buffer twice, which it sends to BLAS syrk, slower than gemm at
    # these shapes. Row 0 of G holds the column sums of Psi, so the score is
    # the observed statistic minus that row
    c = data.X.shape[1]
    GH = Z.T @ tilt_design(U, data, out=Z[:, c:])
    G = GH[:c]
    s = data.obs - G[0]
    if not np.isfinite(s).all():
        raise NonFinite("score")

    # d2 log D / d eta_k d eta_k' is the softmax covariance u_k (delta - u_k'),
    # so H = Psi' Psi minus, for each pair (j, j') of one neighbor,
    # X[:, col[j]]' Psi[:, j'] = G[col[j], j']
    H = GH[c:]
    H -= np.where(data.same, G[data.col], 0.0)
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


def _initial_theta(start, data: FusedData) -> np.ndarray:
    """A fresh flat theta to start ``fit`` at: 0, or a copy of a checked,
    finite flat theta."""
    if start is None:
        return np.zeros(data.m + data.r)
    theta = _check_theta(start, data).copy()
    if not np.isfinite(theta).all():
        raise InputError("the start theta has a non-finite entry")
    return theta


def fit(data: FusedData, start: np.ndarray | None = None) -> FittedModel:
    """Maximize the profile log-likelihood; returns the fitted model.

    One damped Newton loop on the flat theta. It begins at 0, or at
    ``start``, a flat theta in ``data``'s layout: of length m + r, 0 at
    pinned alphas and numeric (else ArityMismatch), and finite (else
    InputError); the loop works on a copy. The loop and its stopping
    rule are the same from any start, and l is concave, so every start
    reaches the same maximizer. Only the ``free`` coordinates move; the
    others stay pinned at 0. Each candidate costs one pass over the tilt
    exponents; score and Hessian are derived from it only when it can be
    accepted. While the score exceeds ``_GRAD_TOL * n`` the loop ascends: it
    halves the step until l rises or the score shrinks, falling back to
    steepest ascent when the Newton direction is unusable.
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
    if free.size < data.m + data.r:
        sub = np.ix_(free, free)
    else:   # no empty tilt: s, H and the step are views of the full arrays
        free = sub = slice(None)
    theta = _initial_theta(start, data)
    l, logD, U = _loglik_parts(theta, data)
    Z = _derivative_buffer(data)   # one per fit: X is copied in once
    s_full, H_full = _score_hessian(U, data, Z)
    s, H = s_full[free], H_full[sub]
    sn = float(np.abs(s).max(initial=0.0))
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
                s2_full, H2_full = _score_hessian(U2, data, Z)
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

    S = -H_full / n
    # the empirical-likelihood point masses p_i = 1 / (n_0 D_i)
    weights = np.exp(-np.log(data.n0) - logD)
    Sigma = asymptotics.Sigma_matrix(S, data.rho)
    for a in (theta, weights, S, Sigma, U):
        a.flags.writeable = False
    return FittedModel(
        theta=theta,
        weights=weights,
        loglik=l,
        score_norm=float(np.abs(s_full).max(initial=0.0)),
        iterations=iterations,
        S=S,
        Sigma=Sigma,
        U=U,
        data=data,
    )
