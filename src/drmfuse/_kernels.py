"""Shared numerical kernels over the fused data.

The kernels take the flat parameter vector theta = (alpha_1..alpha_m, beta)
and read the layout from ``FusedData``: one shared design X = (t, log t,
log^2 t), and the map ``(nbr[j], col[j])`` that sends flat beta coordinate j
to its neighbor and its column of X. Each neighbor's log tilt is then a
column of eta = alpha + X B, with B[col[j], nbr[j]] = beta_j.

Everything here works in log space: tilt exponents can be huge for large
measurements (exp(beta * log^2 x) overflows quickly), but the softmax-like
ratios q_k = w_k / sum_u rho_u w_u are bounded above by 1/rho_k, so all
downstream quantities are formed from exponent differences. The
log-denominator shifts every row by its largest exponent before
exponentiating, so no exponential exceeds 1. X and the (n, m) and (n, m + r)
arrays are column-major, because numpy reduces a C-order array along its
short axis one row at a time.
"""

from __future__ import annotations

import numpy as np

from .core import FusedData, NonFinite


def eta_matrix(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """Log tilt values eta = alpha + X B at the flat theta, shape (n, m)."""
    m = data.m
    B = np.zeros((3, m))
    B[data.col, data.nbr] = theta[m:]
    eta = (B.T @ data.X.T).T   # column-major (n, m)
    eta += theta[:m]
    return eta


def log_denominators(theta: np.ndarray, data: FusedData) -> tuple[np.ndarray, np.ndarray]:
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


def tilt_design(U: np.ndarray, data: FusedData) -> np.ndarray:
    """Psi = (U, U[:, nbr] * X[:, col]), shape (n, m + r).

    ``U[:, k] = rho_k w_k / D``; beta column j is neighbor nbr[j]'s ratio
    times its basis function col[j].
    """
    m = data.m
    Psi = np.empty((data.n, m + data.r), order="F")
    Psi[:, :m] = U
    for j, (k, c) in enumerate(zip(data.nbr, data.col)):
        np.multiply(U[:, k], data.X[:, c], out=Psi[:, m + j])   # no (n, r) temporaries
    return Psi


def fused_weights(logD: np.ndarray, data: FusedData) -> np.ndarray:
    """Empirical-likelihood point masses p_i = 1 / (n_0 D_i)."""
    return np.exp(-np.log(data.n0) - logD)
