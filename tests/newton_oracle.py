"""Independent oracle for the Newton fitter: the two-loop route, and the
profile log-likelihood with its score and Hessian at any flat theta.

The package runs the fit as one loop whose polish tail is a flag on the
iteration. This module keeps the earlier route: a damped Newton ascent with
step halving, then a separate loop of at most five full Newton steps. Both
routes share the package's exponent pass (``_loglik_parts``) and derivatives
(``_score_hessian``), so tests compare them for equal iteration counts and
bit-identical theta, log-likelihood, score norm, Hessian, weights and
ratios U.

``profile_loglik``, ``score`` and ``hessian`` evaluate l and its derivatives
at a flat theta in the data's layout, checked as ``fit`` checks a start
(ArityMismatch), for the finite-difference and derivative-free checks.
"""

import numpy as np

from drmfuse import likelihood
from drmfuse._kernels import log_denominators
from drmfuse.core import NoConvergence, NonFinite

_EPS = np.finfo(float).eps


def profile_loglik(theta, data):
    """l(theta) at the flat theta; raises NonFinite if tilt exponents are not finite."""
    return likelihood._loglik_parts(likelihood._check_theta(theta, data), data)[0]


def score(theta, data):
    """Gradient of l at the flat theta, length m + r, in the same layout."""
    U = log_denominators(likelihood._check_theta(theta, data), data)[1]
    return likelihood._score_hessian(U, data, likelihood._derivative_buffer(data))[0]


def hessian(theta, data):
    """Exact second derivative of l at the flat theta, (m+r)x(m+r), symmetric and <= 0."""
    U = log_denominators(likelihood._check_theta(theta, data), data)[1]
    return likelihood._score_hessian(U, data, likelihood._derivative_buffer(data))[1]


def fit_core(data):
    """(theta, loglik, iterations, score_norm, H, logD, U) at the returned theta."""
    n, free = data.n, data.free
    sub = np.ix_(free, free)
    theta = np.zeros(data.m + data.r)

    l, logD, U = likelihood._loglik_parts(theta, data)
    Z = likelihood._derivative_buffer(data)
    s_full, H_full = likelihood._score_hessian(U, data, Z)
    s = s_full[free]
    H = H_full[sub]
    iterations = 0

    def direction():
        try:
            d = np.linalg.solve(-H, s)
            if np.isfinite(d).all() and d @ s > 0:
                return d
        except np.linalg.LinAlgError:
            pass
        return s / n  # steepest-ascent fallback

    sn = float(np.max(np.abs(s))) if s.size else 0.0
    while sn > likelihood._GRAD_TOL * n:
        if iterations >= likelihood._MAX_ITERATIONS:
            raise NoConvergence(iterations, sn)
        d = direction()
        lam = 1.0
        accepted = False
        for _ in range(likelihood._STEP_HALVING_MAX):
            cand = theta.copy()
            cand[free] += lam * d
            try:
                l2, logD2, U2 = likelihood._loglik_parts(cand, data)
            except NonFinite:
                lam *= 0.5
                continue
            if l2 >= l - 4 * _EPS * max(1.0, abs(l)):
                # an ascent is accepted; a float-stationary l only if the step
                # still shrinks the score
                s2_full, H2_full = likelihood._score_hessian(U2, data, Z)
                if l2 > l or np.max(np.abs(s2_full[free])) < sn:
                    theta, l, logD, U = cand, l2, logD2, U2
                    s_full, H_full = s2_full, H2_full
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise NoConvergence(iterations, sn)
        iterations += 1
        s = s_full[free]
        H = H_full[sub]
        sn = float(np.max(np.abs(s)))

    # Polish: a few full Newton steps so constraint residuals reach ~1e-12 * n.
    for _ in range(5):
        if sn <= 64 * _EPS * n or not s.size:
            break
        try:
            d = np.linalg.solve(-H, s)
        except np.linalg.LinAlgError:
            break
        cand = theta.copy()
        cand[free] += d
        try:
            l2, logD2, U2 = likelihood._loglik_parts(cand, data)
            s2_full, H2_full = likelihood._score_hessian(U2, data, Z)
        except NonFinite:
            break
        sn2 = float(np.max(np.abs(s2_full[free])))
        if l2 < l - 4 * _EPS * max(1.0, abs(l)) or sn2 >= sn:
            break
        theta, l, logD, U = cand, l2, logD2, U2
        s_full, H_full = s2_full, H2_full
        s = s_full[free]
        H = H_full[sub]
        sn = sn2
        iterations += 1

    score_norm = float(np.max(np.abs(s_full))) if s_full.size else 0.0
    return theta, l, iterations, score_norm, H_full, logD, U
