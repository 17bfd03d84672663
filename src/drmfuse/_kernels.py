"""Shared numerical kernels over the fused data.

Everything here works in log space: tilt exponents can be huge for large
measurements (exp(beta * log^2 x) overflows quickly), but the softmax-like
ratios q_k = w_k / sum_u rho_u w_u are bounded above by 1/rho_k, so all
downstream quantities are formed from exponent differences. The
log-denominator shifts every row by its largest exponent before
exponentiating, so no exponential exceeds 1. The (n, m) and (n, m + r)
arrays are column-major, because numpy reduces a C-order array along its
short axis one row at a time.
"""

from __future__ import annotations

import numpy as np

from .core import FusedData, NonFinite, Theta


def eta_matrix(theta: Theta, data: FusedData) -> np.ndarray:
    """Log tilt values eta[:, k] = alpha_k + h_k(t)^T beta_k, shape (n, m)."""
    eta = np.empty((data.n, data.m), order="F")
    for k in range(data.m):
        eta[:, k] = theta.alpha[k]
        if theta.beta[k].size:
            eta[:, k] += data.basis[k] @ theta.beta[k]
    return eta


def log_denominators(theta: Theta, data: FusedData) -> tuple[np.ndarray, np.ndarray]:
    """(logD, eta) with logD_i = log sum_{k=0}^m rho_k w_k(t_i), w_0 = 1.

    Each row is shifted by mx_i = max(0, max_k eta_ik), so w_k never
    materializes raw: logD = mx + log(exp(-mx) + exp(eta - mx) @ rho[1:]),
    written with log1p/expm1 so that logD near 0 keeps full relative precision.
    """
    eta = eta_matrix(theta, data)
    if not np.isfinite(eta).all():
        raise NonFinite("tilt exponents")
    if not data.m:  # max over an empty axis raises; D = rho_0 = 1
        return np.zeros(data.n), eta
    mx = np.maximum(eta.max(axis=1), 0.0)
    tail = np.dot(np.exp(eta - mx[:, None]), data.rho[1:])   # @ skips BLAS when m = 1
    logD = mx + np.log1p(np.expm1(-mx) + tail)
    return logD, eta


def softmax_ratios(theta: Theta, data: FusedData):
    """(q, logD, eta) with q[:, k] = w_k / D in (0, 1/rho_k], shape (n, m)."""
    logD, eta = log_denominators(theta, data)
    q = np.exp(eta - logD[:, None])
    return q, logD, eta


def tilt_design(U: np.ndarray, data: FusedData) -> np.ndarray:
    """Psi with rows (u_1, ..., u_m, u_1 h_1', ..., u_m h_m'), shape (n, m + r).

    ``U[:, k] = rho_k w_k / D``; the beta blocks follow ``data.beta_offsets``.
    """
    m, offs = data.m, data.beta_offsets
    Psi = np.empty((data.n, m + data.r), order="F")
    Psi[:, :m] = U
    for k in range(m):
        if data.dims[k]:
            Psi[:, m + offs[k]:m + offs[k + 1]] = U[:, k][:, None] * data.basis[k]
    return Psi


def fused_weights(logD: np.ndarray, data: FusedData) -> np.ndarray:
    """Empirical-likelihood point masses p_i = 1 / (n_0 D_i)."""
    return np.exp(-np.log(data.n0) - logD)
