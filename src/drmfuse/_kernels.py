"""Shared numerical kernels over the fused data.

The kernels take the flat parameter vector theta = (alpha_1..alpha_m, beta)
and read the layout from ``FusedData``: one shared design X = (1, t, log t,
log^2 t), and the map ``(nbr[j], col[j])`` that sends flat coordinate j to
its neighbor and its column of X (column 0 for alpha). Each neighbor's log
tilt is then a column of eta = X B, with B[col[j], nbr[j]] = theta_j.

Everything here works in log space: tilt exponents can be huge for large
measurements (exp(beta * log^2 x) overflows quickly), but the softmax-like
ratios q_k = w_k / sum_u rho_u w_u are bounded above by 1/rho_k, so all
downstream quantities are formed from exponent differences. The
log-denominator shifts every row by its largest exponent before
exponentiating, so no exponential exceeds 1; the same pass gives the ratios.
X and the (n, m) and (n, m + r) arrays are column-major, because numpy
reduces a C-order array along its short axis one row at a time.
"""

from __future__ import annotations

import numpy as np

from .core import FusedData, InputError, NonFinite


def eta_matrix(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """Log tilt values eta = X B at the flat theta, shape (n, m)."""
    B = np.zeros((4, data.m))
    B[data.col, data.nbr] = theta
    return (B.T @ data.X.T).T   # column-major (n, m)


def log_denominators(theta: np.ndarray, data: FusedData) -> tuple[np.ndarray, np.ndarray]:
    """(logD, U): logD_i = log D_i = log sum_{k=0}^m rho_k w_k(t_i), w_0 = 1, and
    the ratios U[:, k - 1] = rho_k w_k / D in (0, 1).

    Each row is shifted by mx_i = max(0, max_k eta_ik), so w_k never
    materializes raw: with E = exp(eta - mx), computed in place, and inner =
    expm1(-mx) + E @ rho[1:], logD = mx + log1p(inner) keeps full relative
    precision near 0, and U = rho[1:] E / (1 + inner).
    """
    eta = eta_matrix(theta, data)
    if not np.isfinite(eta).all():
        raise NonFinite("tilt exponents")
    if not data.m:  # max over an empty axis raises; D = rho_0 = 1
        return np.zeros(data.n), eta
    mx = np.maximum(eta.max(axis=1), 0.0)
    eta -= mx[:, None]
    E = np.exp(eta, out=eta)
    inner = np.expm1(-mx) + np.dot(E, data.rho[1:])   # @ skips BLAS when m = 1
    logD = mx + np.log1p(inner)
    E *= (1.0 / (1.0 + inner))[:, None]
    E *= data.rho[1:]
    return logD, E


def tilt_design(U: np.ndarray, data: FusedData) -> np.ndarray:
    """Psi = U[:, nbr] * X[:, col], shape (n, m + r).

    ``U[:, k] = rho_k w_k / D``; column j is neighbor nbr[j]'s ratio times
    its column col[j] of X, so the first m columns are U itself.
    """
    Psi = np.empty((data.n, data.nbr.size), order="F")
    for j, (k, c) in enumerate(zip(data.nbr, data.col)):
        np.multiply(U[:, k], data.X[:, c], out=Psi[:, j])   # no (n, m + r) temporaries
    return Psi


def fused_weights(logD: np.ndarray, data: FusedData) -> np.ndarray:
    """Empirical-likelihood point masses p_i = 1 / (n_0 D_i)."""
    return np.exp(-np.log(data.n0) - logD)


def at_or_below(t: np.ndarray, T: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """For each threshold T_j, the count of points t_i <= T_j, or with
    ``weights`` of shape (n, c) the per-column sums of their rows, shape (K, c).

    Only the K thresholds are sorted, never t: b_i = searchsorted(sorted T, t_i,
    "left") is the number of thresholds below t_i, so point i counts toward
    the threshold of rank r exactly when b_i <= r. Binning on b and a
    cumulative sum over the first K bins cost O(n log K). A tied threshold
    reads the same sum from an empty bin, so the result does not depend on
    the order of T. A NaN threshold is an InputError.
    """
    nan = np.isnan(T)
    if nan.any():
        raise InputError(f"threshold at position {int(np.argmax(nan))} is NaN")
    K = T.size
    order = np.argsort(T, kind="stable")
    b = np.searchsorted(T[order], t, side="left")
    if weights is None:
        binned = np.bincount(b, minlength=K + 1)[:K]
    else:
        binned = np.empty((K, weights.shape[1]))
        for j in range(weights.shape[1]):
            binned[:, j] = np.bincount(b, weights=weights[:, j], minlength=K + 1)[:K]
    out = np.empty_like(binned)
    out[order] = np.cumsum(binned, axis=0)
    return out
