"""Tests, tilt refinement, CDF estimators, threshold probabilities, GOF pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import asymptotics, likelihood
from ._kernels import at_or_below
from .core import (
    ArityMismatch,
    Basis,
    DrmError,
    FittedModel,
    GLOBAL_TILT,
    Sample,
    TiltSpec,
    validate,
)


@dataclass(frozen=True)
class ComponentTest:
    basis: Basis
    z: float
    p: float


@dataclass(frozen=True)
class TestReport:
    """Joint chi-square test, optionally with per-component Z-tests attached."""

    statistic: float
    df: int
    p_value: float
    per_component: tuple[ComponentTest, ...] | None = None


@dataclass(frozen=True)
class ThresholdEstimate:
    """Estimated exceedance probability 1 - G(T) with a Wald interval."""

    T: float
    prob: float
    se: float
    ci: tuple[float, float]
    method: str                   # "drm" or "empirical"

    @property
    def ci_clamped(self) -> tuple[float, float]:
        """Interval truncated to [0, 1]; the raw ci is reported untouched."""
        lo, hi = self.ci
        return (max(lo, 0.0), min(hi, 1.0))


@dataclass(frozen=True, eq=False)
class GofResult:
    """Pairs (Ghat(t), Gtilde(t)) over the distinct reference values."""

    pairs: np.ndarray            # shape (k, 2), sorted by t
    max_abs_diff: float


def empirical_cdf(sample: Sample, x) -> np.ndarray:
    """Model-free empirical CDF of one sample at each point of the 1-d ``x``:
    the exact share k/n of values at or below it."""
    return at_or_below(sample.values, x) / sample.n


def drm_cdf(fit: FittedModel, x) -> np.ndarray:
    """Fused-data estimate of the reference CDF at each point of the 1-d
    ``x``: the mass p_i of the fused points at or below it. Bitwise equal to
    ``sigma_t(fit, x)[0]``, which bins the same weights column."""
    return at_or_below(fit.data.t, x, fit.weights[:, None])[:, 0]


def _two_sided_p(z: float) -> float:
    """P(|N(0, 1)| >= |z|)."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def _chi2_sf(x: float, df: int) -> float:
    """P(chi-square with integer df > x): the regularized upper incomplete
    gamma Q(df/2, x/2), from Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1)
    started at Q(1, y) = e^-y (even df) or Q(1/2, y) = erfc(sqrt(y)) (odd df).
    x <= 0 gives 1 and x = inf gives 0."""
    if x == math.inf:
        return 0.0   # the series terms would be inf * 0
    y = max(x, 0.0) / 2.0   # max(nan, 0.0) is nan, so NaN propagates
    if df % 2:
        a, q, term = 0.5, math.erfc(math.sqrt(y)), 2.0 * math.sqrt(y / math.pi) * math.exp(-y)
    else:
        a, q, term = 1.0, math.exp(-y), y * math.exp(-y)
    while a < df / 2.0:
        q += term
        a += 1.0
        term *= y / a
    return q


def _wald_z(level: float) -> float:
    """Two-sided standard normal quantile for a confidence level in (0, 1).

    Taken from the lower tail, where (1 - level) / 2 keeps its precision: the
    upper-tail point 0.5 + level / 2 rounds to 1 at level = 1 - 2**-53.
    """
    return -NormalDist().inv_cdf((1.0 - level) / 2.0)


def _beta_block(fit: FittedModel):
    m = fit.data.m
    if m != 1:
        raise ArityMismatch(f"pairwise fit required (m = 1), got m = {m}")
    beta = fit.theta[m:]
    Sigma_beta = fit.Sigma[m:, m:]
    return beta, Sigma_beta


def chi_square_beta_test(fit2: FittedModel) -> TestReport:
    """Joint test of beta = 0 for a pairwise fit; chi-square with r_1 df."""
    beta, Sigma_beta = _beta_block(fit2)
    Sinv = asymptotics._sym_inverse(Sigma_beta, "Sigma_beta")
    stat = float(fit2.data.n * beta @ Sinv @ beta)
    return TestReport(
        statistic=stat,
        df=beta.size,
        p_value=_chi2_sf(stat, beta.size),
    )


def z_tests(fit2: FittedModel) -> TestReport:
    """Per-component Z-tests for a pairwise fit (joint statistic attached)."""
    joint = chi_square_beta_test(fit2)
    beta, Sigma_beta = _beta_block(fit2)
    # Sigma's beta block is that of S^-1, and S is positive definite, so var > 0
    z = (beta / np.sqrt(np.diag(Sigma_beta) / fit2.data.n)).tolist()
    return TestReport(
        statistic=joint.statistic,
        df=joint.df,
        p_value=joint.p_value,
        per_component=tuple(ComponentTest(basis=b, z=zj, p=_two_sided_p(zj))
                            for b, zj in zip(fit2.data.neighbors[0][1].basis, z)),
    )


def refine_tilts(
    reference: Sample,
    neighbors: list[Sample],
    alpha_level: float = 0.05,
) -> list[TiltSpec]:
    """Pairwise tilt selection against the reference.

    For each neighbor: fit the pairwise model with the global tilt
    (x, log x, log^2 x); if the joint chi-square test does not reject at
    alpha_level the neighbor is declared equidistributed (empty tilt);
    otherwise every component whose Z-test p-value is >= alpha_level is
    dropped in a single pass.
    """
    if not 0.0 < alpha_level < 1.0:
        raise ArityMismatch(f"alpha_level must be in (0, 1), got {alpha_level!r}")
    out = []
    for nb in neighbors:
        try:
            data = validate([reference, nb], [GLOBAL_TILT])
            pair_fit = likelihood.fit(data)
            report = z_tests(pair_fit)
            if report.p_value >= alpha_level:
                out.append(TiltSpec(()))
                continue
            kept = tuple(c.basis for c in report.per_component if c.p < alpha_level)
            out.append(TiltSpec(kept))
        except DrmError as e:
            e.label = nb.label
            raise
    return out


def threshold_probability(
    source: FittedModel | Sample,
    T,
    level: float = 0.95,
) -> tuple[ThresholdEstimate, ...]:
    """Exceedance probabilities 1 - G(t) with Wald intervals, one per t in T.

    A FittedModel source takes G(t) and the variance sigma(t)/n from
    ``asymptotics.sigma_t``; a Sample source counts its values above each t
    and takes the binomial Wald variance p(1-p)/n_0. Both bin the values on
    the thresholds (``_kernels.at_or_below``, O(n log n + K log K) for K
    thresholds, with one sort of the n values). A NaN threshold is an
    InputError and a T that is not 1-d an ArityMismatch; -inf and +inf give
    1 and 0, and a FittedModel gives 0 with se 0 at every t at or above its
    largest fused point. Intervals are reported raw (they may cross 0 or 1);
    see ci_clamped for the truncated version.
    """
    if not 0.0 < level < 1.0:
        raise ArityMismatch(f"confidence level must be in (0, 1), got {level!r}")
    T = np.asarray(T, dtype=float)
    z = _wald_z(level)
    if isinstance(source, FittedModel):
        n = source.data.n
        G, sigma = asymptotics.sigma_t(source, T)
        # summation rounding can leave G(T) a few ulp outside [0, 1], hence the
        # clip; at or above the largest fused point, where sigma_t sets sigma
        # to 0, G sums all the mass and the exceedance is exactly 0
        prob = np.where(T >= source.data.t.max(), 0.0, np.clip(1.0 - G, 0.0, 1.0))
        se = np.sqrt(sigma / n)
        method = "drm"
    elif isinstance(source, Sample):
        n = source.n
        prob = (n - at_or_below(source.values, T)) / n   # exactly the share of values above T
        se = np.sqrt(prob * (1.0 - prob) / n)
        method = "empirical"
    else:
        raise ArityMismatch(f"source must be a FittedModel or Sample, got {type(source)!r}")
    # Python floats, so callers' repr() output does not depend on numpy's
    return tuple(
        ThresholdEstimate(
            T=float(t),
            prob=float(p),
            se=float(s),
            ci=(float(p - z * s), float(p + z * s)),
            method=method,
        )
        for t, p, s in zip(T, prob, se)
    )


def gof_pairs(fit: FittedModel) -> GofResult:
    """Goodness-of-fit pairs (Ghat, Gtilde) at the distinct reference values.

    Points near the 45-degree line indicate the tilt structure fits; a large
    max_abs_diff is the misspecification alarm.
    """
    ts = np.unique(fit.data.reference.values)
    pairs = np.column_stack([empirical_cdf(fit.data.reference, ts), drm_cdf(fit, ts)])
    return GofResult(pairs=pairs, max_abs_diff=float(np.max(np.abs(pairs[:, 0] - pairs[:, 1]))))
