"""Plug-in covariance machinery: Sigma and the pointwise variance sigma(t).

The plug-in information S is -H / n at the fitted parameters (see
``likelihood.fit``). From it,

    Sigma = S^{-1} - (sum_j rho_j) diag(J_m + rho^{-1}, 0)

is the asymptotic covariance of sqrt(n)(theta - theta0), with J_m the m x m
all-ones matrix, and the pointwise variance of sqrt(n)(Gtilde(t) - G(t)) is

    sigma(t) = (sum_j rho_j) (G - G^2 - sum_{j>=1} rho_j A_j(t)) + a' S^{-1} a,
    a = (rho_1 A_1(t), ..., rho_m A_m(t), rho_1 B_1(t)', ..., rho_m B_m(t)'),

where G(t), A_k(t) = int^t w_k / D dG and B_k(t) = int^t w_k h_k / D dG are
estimated by p-weighted sums over the fused points at or below t.
"""

from __future__ import annotations

import numpy as np

from ._kernels import tilt_design
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
            f"(eigenvalues in [{vals[0]:.3e}, {vals[-1]:.3e}])",
            smallest_eigenvalue=float(vals[0]),
        )
    return (vecs / vals) @ vecs.T


def Sigma_matrix(S: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Asymptotic covariance of sqrt(n)(theta - theta0), closed form.

    ``rho`` is the fused data's ``(1, rho_1, ..., rho_m)``.
    """
    m = rho.size - 1
    Sinv = _sym_inverse(S, "S")
    P = np.zeros_like(S)
    if m:
        P[:m, :m] = 1.0 + np.diag(1.0 / rho[1:])
    Sigma = Sinv - rho.sum() * P
    return 0.5 * (Sigma + Sigma.T)


def sigma_t(fit: FittedModel, T) -> tuple[np.ndarray, np.ndarray]:
    """(G(t), plug-in sigma(t)) at each threshold of the 1-d array ``T``.

    Both are piecewise constant between adjacent fused points; negative sigma
    values are clamped to zero. G and the partial sums behind A and B come
    from one cumulative pass over the fused points sorted by t, with the
    fit's ratios ``U``, so each threshold costs a binary search and one
    quadratic form in S^{-1}."""
    data = fit.data
    m = data.m
    # Row 1 + i holds p_i (1, Psi_i): the G, rho_k A_k and rho_k B_k integrands
    # at t_i. Sorted by t and summed in place, row j is (G, a) at the j-th
    # smallest fused point; row 0 is t below all data.
    cum = np.zeros((data.n + 1, 1 + m + data.r))
    cum[1:, 0] = fit.weights
    np.multiply(tilt_design(fit.U, data), fit.weights[:, None], out=cum[1:, 1:])
    order = np.argsort(data.t, kind="stable")
    np.cumsum(cum[1:][order], axis=0, out=cum[1:])
    at = cum[np.searchsorted(data.t[order], np.asarray(T, dtype=float), side="right")]
    G, a = at[..., 0], at[..., 1:]
    Sinv = _sym_inverse(fit.S, "S")
    value = (data.rho.sum() * (G - G * G - a[..., :m].sum(axis=-1))
             + ((a @ Sinv) * a).sum(axis=-1))
    if not np.isfinite(value).all():
        raise NonFinite("sigma(t)")
    return G, np.where(value < 0.0, 0.0, value)
