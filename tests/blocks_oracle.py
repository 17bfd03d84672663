"""Independent oracle for the plug-in covariance: the dense building blocks.

The package takes S from the Newton Hessian and sigma(t) from one sorted
cumulative pass. This module rebuilds both the long way, from the block
matrices of their definitions, so tests can compare the two routes:

    S     = (1 / sum_k rho_k) [[rho - rho A rho, rho E' - rho B rhobar],
                               [  .           ', rhobar Ebar - rhobar C rhobar]]
    Lambda = score covariance assembled from the same blocks,

and sigma(t) by a masked sum over the fused points at or below each t.
Population integrals int phi(t) dG(t) are the p-weighted sums over the fused
data with the tilts plugged in. The score and Hessian of the profile
log-likelihood are rebuilt one neighbor at a time (``score_hessian``).

Nothing here reads the package's parameter layout (``FusedData.X``, ``nbr``,
``col``, ``obs``, ``free``) or its kernels: each neighbor's basis comes from
``basis_matrix`` and its tilt spec, the beta offsets from the specs, the
sufficient statistics from the sample values, and the log-denominators from
scipy's ``logsumexp``. The flat theta is taken as (alpha_1..alpha_m, beta_1,
..., beta_m) and split per neighbor by ``split_theta``.
"""

from types import SimpleNamespace

import numpy as np
from scipy.special import logsumexp

from drmfuse.core import basis_matrix


def _offsets(data):
    """Offsets of each beta_k in the flat beta vector, from the tilt specs."""
    return np.concatenate([[0], np.cumsum([spec.r for _, spec in data.neighbors])]).astype(int)


def split_theta(theta, data):
    """[(alpha_k, beta_k)] per neighbor from the flat theta."""
    m, offs = data.m, _offsets(data)
    assert len(theta) == m + offs[-1]
    return [(theta[k], theta[m + offs[k]:m + offs[k + 1]]) for k in range(m)]


def _layout(data):
    """(basis, offs, suff): per-neighbor h_k(t) over the fused points, the
    offsets of each beta_k in the flat beta vector, and sum_j h_k(X_kj)."""
    basis = [basis_matrix(data.t, spec) for _, spec in data.neighbors]
    suff = [basis_matrix(sample.values, spec).sum(axis=0) for sample, spec in data.neighbors]
    return basis, _offsets(data), suff


def _ratios(theta, data, basis):
    """(q, logD): q[:, k] = w_k / D and logD = log sum_k rho_k w_k, w_0 = 1."""
    eta = np.empty((data.n, data.m))
    for k, (alpha_k, beta_k) in enumerate(split_theta(theta, data)):
        eta[:, k] = alpha_k + basis[k] @ beta_k
    logD = logsumexp(np.column_stack([np.zeros(data.n), eta]), axis=1, b=data.rho)
    return np.exp(eta - logD[:, None]), logD


def blocks_at(theta, data):
    """Blocks A (m,m), B (m,r), C (r,r), E (r,m) and Ebar (r,r) at theta, with
    V = Ebar - E E' on its diagonal blocks; all built from q_k = w_k / D."""
    m, n0 = data.m, data.n0
    basis, offs, _ = _layout(data)
    r = offs[-1]
    q, _ = _ratios(theta, data, basis)

    A = (q.T @ q) / n0
    B = np.zeros((m, r))
    C = np.zeros((r, r))
    E = np.zeros((r, m))
    Ebar = np.zeros((r, r))
    V = np.zeros((r, r))
    for k in range(m):
        hk = basis[k]
        qk = q[:, k]
        for kp in range(m):
            qq = qk * q[:, kp]
            B[k, offs[kp]:offs[kp + 1]] = (qq @ basis[kp]) / n0
            C[offs[k]:offs[k + 1], offs[kp]:offs[kp + 1]] = (
                hk.T @ (qq[:, None] * basis[kp]) / n0
            )
        Ek = (qk @ hk) / n0
        Ebark = hk.T @ (qk[:, None] * hk) / n0
        E[offs[k]:offs[k + 1], k] = Ek
        Ebar[offs[k]:offs[k + 1], offs[k]:offs[k + 1]] = Ebark
        V[offs[k]:offs[k + 1], offs[k]:offs[k + 1]] = Ebark - np.outer(Ek, Ek)
    return SimpleNamespace(A=A, B=B, C=C, E=E, Ebar=Ebar, V=V, m=m, beta_offsets=offs)


def _rho_diags(data):
    rho = data.rho[1:]
    return np.diag(rho), np.diag(np.repeat(rho, np.diff(_offsets(data)))), data.rho.sum()


def S_matrix(bb, data):
    """Plug-in S from the blocks."""
    rho, rhobar, c = _rho_diags(data)
    S11 = rho - rho @ bb.A @ rho
    S12 = rho @ bb.E.T - rho @ bb.B @ rhobar
    S22 = rhobar @ bb.Ebar - rhobar @ bb.C @ rhobar
    S = np.block([[S11, S12], [S12.T, S22]]) / c
    return 0.5 * (S + S.T)


def lambda_matrix(bb, data):
    """Score covariance Lambda from its definition blocks."""
    rho, rhobar, c = _rho_diags(data)
    A, B, E, Ebar, C = bb.A, bb.B, bb.E, bb.Ebar, bb.C
    J = np.ones((bb.m, bb.m))
    Im = np.eye(bb.m)
    L11 = rho @ (A - A @ rho @ A - (Im - A @ rho) @ J @ (Im - rho @ A)) @ rho
    L12 = rho @ (A @ E.T - A @ rho @ B - (Im - A @ rho) @ J @ (E.T - rho @ B)) @ rhobar
    L22 = (
        rhobar
        @ (-C - B.T @ rho @ B - (E - B.T @ rho) @ J @ (E.T - rho @ B)
           + B.T @ E.T + E @ B)
        @ rhobar
        + rhobar @ (Ebar - E @ E.T)
    )
    Lam = np.block([[L11, L12], [L12.T, L22]]) / c
    return 0.5 * (Lam + Lam.T)


def sigma_t(fit, t):
    """sigma(t) at one threshold by masked sums over the fused points, with the
    S^{-1} quadratic form from a linear solve; negative values clamp to 0."""
    data = fit.data
    m = data.m
    basis, offs, _ = _layout(data)
    q, logD = _ratios(fit.theta, data, basis)
    pw = np.exp(-logD) / data.n0
    rho1 = data.rho[1:]

    ind = data.t <= t
    G = pw[ind].sum()
    expnD = np.exp(-logD[ind])
    Ak = (q[ind] * expnD[:, None]).sum(axis=0) / data.n0
    a = np.zeros(m + offs[-1])
    a[:m] = rho1 * Ak
    for k in range(m):
        Bk = ((q[ind, k] * expnD) @ basis[k][ind]) / data.n0
        a[m + offs[k]:m + offs[k + 1]] = rho1[k] * Bk
    value = data.rho.sum() * (G - G * G - rho1 @ Ak)
    if a.size:
        value += a @ np.linalg.solve(fit.S, a)
    return max(float(value), 0.0)


def score_hessian(theta, data):
    """(s, H) of the profile log-likelihood at theta, per neighbor: the beta
    score is suff_k - u_k' h_k, and H = Psi' Psi minus, for each neighbor,
    the block G_k' diag(u_k) G_k with G_k = (1, h_k), written at its rows
    and columns idx_k."""
    m = data.m
    basis, offs, suff = _layout(data)
    q, _ = _ratios(theta, data, basis)
    U = data.rho[1:] * q
    s = np.empty(m + offs[-1])
    s[:m] = data.n_k[1:] - U.sum(axis=0)
    for k in range(m):
        if offs[k + 1] > offs[k]:
            s[m + offs[k]:m + offs[k + 1]] = suff[k] - U[:, k] @ basis[k]

    Psi = np.column_stack([U] + [U[:, [k]] * basis[k] for k in range(m)])
    H = Psi.T @ Psi
    for k in range(m):
        idx = np.r_[k, m + offs[k]:m + offs[k + 1]]
        cols = Psi[:, idx]
        H[np.ix_(idx, idx)] -= np.vstack([cols.sum(axis=0), basis[k].T @ cols])
    return s, 0.5 * (H + H.T)
