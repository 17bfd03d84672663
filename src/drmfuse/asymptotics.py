"""Plug-in covariance machinery: Sigma and the pointwise variance sigma(t).

The plug-in information S is -H / n at the fitted parameters (see
``likelihood.fit``). From it,

    Sigma = S^{-1} - (sum_j rho_j) diag(J_m + rho^{-1}, 0)

is the asymptotic covariance of sqrt(n)(theta - theta0), with J_m the m x m
all-ones matrix, and the pointwise variance of sqrt(n)(Gtilde(t) - G(t)) is

    sigma(t) = (sum_j rho_j) (G - G^2 - sum_{j>=1} rho_j A_j(t)) + a' S^{-1} a,
    a = (rho_1 A_1(t), ..., rho_m A_m(t), rho_1 B_1(t)', ..., rho_m B_m(t)'),

where G(t), A_k(t) = int^t w_k / D dG and B_k(t) = int^t w_k h_k / D dG are
estimated by p-weighted sums over the fused points at or below t. Those sums
are binned on the K thresholds (``_kernels.at_or_below``), which sorts the
fused points once per call, so a call costs O(n log n + K log K).
"""

from __future__ import annotations

import numpy as np

from ._kernels import at_or_below, tilt_design
from .core import FittedModel, NonFinite, SingularMatrix

_COND_LIMIT = 1e12


def _sym_inverse(S: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a symmetric matrix; SingularMatrix unless it is positive
    definite with condition number at most 1e12."""
    if S.size == 0:
        return S.copy()
    vals, vecs = np.linalg.eigh(S)
    if vals[0] <= 0 or vals[-1] / vals[0] > _COND_LIMIT:
        raise SingularMatrix(
            f"{what} is singular or ill-conditioned "
            f"(eigenvalues in [{vals[0]:.3e}, {vals[-1]:.3e}])"
        )
    return (vecs / vals) @ vecs.T


def Sigma_matrix(S: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Asymptotic covariance of sqrt(n)(theta - theta0), closed form.

    ``rho`` is the fused data's ``(1, rho_1, ..., rho_m)``.
    """
    m = rho.size - 1
    Sinv = _sym_inverse(S, "S")
    P = np.zeros_like(S)
    P[:m, :m] = 1.0 + np.diag(1.0 / rho[1:])
    Sigma = Sinv - rho.sum() * P
    return 0.5 * (Sigma + Sigma.T)


def sigma_t(fit: FittedModel, T) -> tuple[np.ndarray, np.ndarray]:
    """(G(t), plug-in sigma(t)) at each threshold of the 1-d array ``T``.

    Both are piecewise constant between adjacent fused points; negative sigma
    values are clamped to zero. At or above the largest fused point G sums
    all the mass, which has no variance, so sigma there is exactly 0 rather
    than the rounding residue of the formula's cancelling terms. G and the
    partial sums behind A and B are the sums of their integrands over the
    fused points at or below each threshold, binned on the thresholds by
    ``at_or_below`` with the fit's ratios ``U``: O(n log n + K log K) for K
    thresholds, with one sort of the fused points, and one quadratic form in
    S^{-1} per threshold. A NaN threshold is an InputError and a T that is
    not 1-d an ArityMismatch."""
    data = fit.data
    m = data.m
    # Column 0 holds p_i, the G integrand; columns 1: hold p_i Psi_i, the
    # rho_k A_k and rho_k B_k integrands at t_i, built from the p-weighted
    # ratios in one (n, m + r) pass
    W = np.empty((data.n, 1 + m + data.r), order="F")
    W[:, 0] = fit.weights
    tilt_design(np.multiply(fit.U, fit.weights[:, None], order="F"), data, out=W[:, 1:])
    at = at_or_below(data.t, T, W)
    G, a = at[:, 0], at[:, 1:]
    Sinv = _sym_inverse(fit.S, "S")
    value = (data.rho.sum() * (G - G * G - a[:, :m].sum(axis=1))
             + ((a @ Sinv) * a).sum(axis=1))
    if not np.isfinite(value).all():
        raise NonFinite("sigma(t)")
    top = np.asarray(T, dtype=float) >= data.t.max()
    return G, np.where((value < 0.0) | top, 0.0, value)
