"""Shared numerical kernels over the fused data.

The kernels take the flat parameter vector theta = (alpha_1..alpha_m, beta)
and read the layout from ``FusedData``: one shared design X = (1, t, log t,
log^2 t), and the map ``(nbr[j], col[j])`` that sends flat coordinate j to
its neighbor and its column of X (column 0 for alpha). Each neighbor's log
tilt is then a column of eta = X B, with B[col[j], nbr[j]] = theta_j.

Tilt exponents can be huge for large measurements (exp(beta * log^2 x)
overflows quickly), but the softmax-like ratios q_k = w_k / sum_u rho_u w_u
are bounded above by 1/rho_k. While the largest exponent keeps every
denominator D_i = sum_k rho_k w_k(t_i) below half the largest float, the
log-denominator exponentiates eta as it is; above that bound it shifts every
row by its largest exponent first, so no exponential exceeds 1. The same
pass gives the ratios. X and the (n, m) and (n, m + r) arrays are
column-major, because numpy reduces a C-order array along its short axis
one row at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ArityMismatch, FusedData, InputError, NonFinite

_LOG_MAX = math.log(np.finfo(float).max)


def eta_matrix(theta: np.ndarray, data: FusedData) -> np.ndarray:
    """Log tilt values eta = X B at the flat theta, shape (n, m)."""
    B = np.zeros((data.X.shape[1], data.m))
    B[data.col, data.nbr] = theta
    return (B.T @ data.X.T).T   # column-major (n, m)


def unshifted_limit(data: FusedData) -> float:
    """The largest tilt exponent that ``log_denominators`` exponentiates
    unshifted: up to it, D_i <= (sum_k rho_k) e^{max_k eta_ik} is at most half
    the largest float, and sum_k rho_k = n / n_0."""
    return _LOG_MAX - math.log(2.0 * data.n / data.n0)


def log_denominators(theta: np.ndarray, data: FusedData) -> tuple[np.ndarray, np.ndarray]:
    """(logD, U): logD_i = log D_i = log sum_{k=0}^m rho_k w_k(t_i), w_0 = 1, and
    the ratios U[:, k - 1] = rho_k w_k / D in (0, 1).

    With E = exp(eta), computed in place, and inner = E @ rho[1:], logD =
    log1p(inner) keeps full relative precision near 0 and U = rho[1:] E / (1
    + inner). That holds while no exponent exceeds ``unshifted_limit``;
    beyond it, each row is shifted by mx_i = max(0, max_k eta_ik) first, so
    w_k never materializes raw: E = exp(eta - mx), inner = expm1(-mx) + E @
    rho[1:] and logD = mx + log1p(inner).
    """
    eta = eta_matrix(theta, data)
    if not np.isfinite(eta).all():
        raise NonFinite("tilt exponents")
    if eta.max(initial=-np.inf) <= unshifted_limit(data):
        E = np.exp(eta, out=eta)
        inner = np.dot(E, data.rho[1:])   # @ skips BLAS when m = 1
        logD = np.log1p(inner)
    else:
        mx = np.maximum(eta.max(axis=1), 0.0)
        eta -= mx[:, None]
        E = np.exp(eta, out=eta)
        inner = np.expm1(-mx) + np.dot(E, data.rho[1:])
        logD = mx + np.log1p(inner)
    inner += 1.0
    E /= inner[:, None]
    E *= data.rho[1:]
    return logD, E


def tilt_design(U: np.ndarray, data: FusedData, out: np.ndarray) -> np.ndarray:
    """Psi = U[:, nbr] * X[:, col], shape (n, m + r), written into ``out``,
    which is returned.

    ``U[:, k] = rho_k w_k / D``; column j is neighbor nbr[j]'s ratio times
    its column col[j] of X, so the first m columns are U itself. ``out`` may
    be a column block of a wider column-major buffer, such as the Psi block
    of ``[X | Psi]`` that the Newton derivative pass multiplies in one product.
    """
    m = data.m
    out[:, :m] = U   # X's column 0 is all ones
    for j, (k, c) in enumerate(data.pairs[m:], start=m):
        np.multiply(U[:, k], data.X[:, c], out=out[:, j])   # no (n, m + r) temporaries
    return out


def at_or_below(t: np.ndarray, T, weights: np.ndarray | None = None) -> np.ndarray:
    """For each threshold T_j of the 1-d ``T``, the count of points t_i <= T_j,
    or with ``weights`` of shape (n, c) the per-column sums of their rows,
    shape (K, c). This is the package's one CDF evaluator.

    b_i, the number of thresholds below t_i, puts point i toward the
    threshold of rank r exactly when b_i <= r. The points are sorted once and
    the sorted thresholds merged into them: the points between the ends of
    thresholds r - 1 and r (searchsorted "right") have b_i = r. Searching
    sorted keys keeps the binary searches predictable, which searching the n
    unsorted points in the K thresholds does not. Binning on b and a
    cumulative sum over the first K bins then cost O(n log n + K log K) with
    one sort of the records per call. A tied threshold reads the same sum
    from an empty bin, so the result does not depend on the order of T. A
    NaN threshold is an InputError, and a T that is not 1-d an ArityMismatch.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 1:
        raise ArityMismatch(f"thresholds must be a 1-d sequence, got shape {T.shape}")
    nan = np.isnan(T)
    if nan.any():
        raise InputError(f"threshold at position {int(np.argmax(nan))} is NaN")
    K = T.size
    order = np.argsort(T, kind="stable")
    keys = np.argsort(t)
    ends = np.searchsorted(t[keys], T[order], side="right")
    b = np.empty(t.size, dtype=np.intp)
    b[keys] = np.repeat(np.arange(K + 1), np.diff(np.concatenate(([0], ends, [t.size]))))
    if weights is None:
        binned = np.bincount(b, minlength=K + 1)[:K]
    else:
        binned = np.empty((K, weights.shape[1]))
        for j in range(weights.shape[1]):
            binned[:, j] = np.bincount(b, weights=weights[:, j], minlength=K + 1)[:K]
    out = np.empty_like(binned)
    out[order] = np.cumsum(binned, axis=0)
    return out
