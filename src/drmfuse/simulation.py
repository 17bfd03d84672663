"""Monte Carlo harness: synthetic generators and MIAE/MISE estimator comparison.

The synthetic truth: reference Exp(rate 2), neighbors Gamma(shape 2, rate 2)
and Lognormal(log-mean 1, log-sd 1), giving the exact density ratios

    g1/g0 = exp(log 2 + log x)
    g2/g0 = exp(-1/2 - log(2 sqrt(2 pi)) + 2 x - (1/2) log^2 x)

so the refined tilts are (log x) and (x, log^2 x). Both are subsets of the
global tilt, so each replicate fits the refined model first and starts the
uniform fit at its MLE, a point of the uniform model. Errors are integrated CDF
errors over a regular grid: one replicate contributes
delta * sum_j |Fhat(M1 + j delta) - F(M1 + j delta)| (and its square), and the
harness averages over replicates.

Seeding: replicate i draws from numpy's default generator seeded with
SeedSequence(seed, spawn_key=(i,)), sampling the reference, gamma and
lognormal vectors in that order. The mapping is stable across runs, so equal
seeds give bit-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inference, likelihood
from .core import (
    ArityMismatch,
    Basis,
    GLOBAL_TILT,
    NumericalError,
    Sample,
    TiltSpec,
    validate,
)

REFINED_TILTS = (
    TiltSpec((Basis.LOG,)),
    TiltSpec((Basis.IDENTITY, Basis.LOGSQ)),
)
UNIFORM_TILTS = (GLOBAL_TILT, GLOBAL_TILT)

ESTIMATORS = ("uniform", "refined", "empirical")


class ExcessiveFailures(NumericalError):
    def __init__(self, failures: int, total: int):
        super().__init__(
            f"{failures}/{total} replicates failed to fit (> 10% abort threshold)"
        )
        self.failures = failures
        self.total = total


@dataclass(frozen=True)
class SimConfig:
    replications: int = 300
    sizes: tuple[int, int, int] = (1000, 1000, 1000)
    grid: tuple[float, float, int] = (0.0, 10.0, 1000)   # (M1, M2, J)
    seed: int = 0

    def __post_init__(self):
        if len(self.grid) != 3:
            raise ArityMismatch(f"grid must be (M1, M2, J), got {len(self.grid)} values")
        m1, m2, j = self.grid
        if not m2 > m1:
            raise ArityMismatch(f"grid upper bound {m2!r} must exceed lower bound {m1!r}")
        if j < 1 or self.replications < 1:
            raise ArityMismatch("replications and grid size must be >= 1")
        if len(self.sizes) != 3:
            raise ArityMismatch(f"sizes must be three sample sizes, got {len(self.sizes)}")
        if any(n < 1 for n in self.sizes):
            raise ArityMismatch("sample sizes must be >= 1")


def exp2_cdf(x):
    """True reference CDF, Exp(rate 2)."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, -np.expm1(-2.0 * x), 0.0)
    return float(out) if out.ndim == 0 else out


def generate(seed, sizes: tuple[int, int, int]) -> tuple[Sample, Sample, Sample]:
    """Draw (reference, gamma neighbor, lognormal neighbor) samples.

    ``seed`` may be an int, a SeedSequence, or a Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n0, n1, n2 = sizes
    return (
        Sample.reference("exp", rng.exponential(scale=0.5, size=n0)),
        Sample.neighbor("gamma", rng.gamma(shape=2.0, scale=0.5, size=n1)),
        Sample.neighbor("lognormal", rng.lognormal(mean=1.0, sigma=1.0, size=n2)),
    )


def miae_mise(estimate, truth, grid: tuple[float, float, int]) -> tuple[float, float]:
    """Single-replicate integrated absolute and squared CDF error.

    ``estimate`` and ``truth`` are callables on the 1-d array of evaluation
    points M1 + j*delta for j = 1..J.
    """
    m1, m2, j = grid
    if not (m2 > m1 and j >= 1):
        raise ArityMismatch("invalid grid")
    delta = (m2 - m1) / j
    xs = m1 + delta * np.arange(1, j + 1)
    diff = np.asarray(estimate(xs), dtype=float) - np.asarray(truth(xs), dtype=float)
    return float(delta * np.abs(diff).sum()), float(delta * (diff * diff).sum())


@dataclass(frozen=True)
class EstimatorSummary:
    estimator: str
    miae: float
    miae_se: float
    mise: float
    mise_se: float


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    rows: tuple[EstimatorSummary, ...]
    replications_used: int
    failures: int
    config: SimConfig
    per_replicate: dict[str, np.ndarray] = field(repr=False)   # (I_used, 2) per estimator

    def to_text(self) -> str:
        n = self.config.sizes[0]
        lines = [
            f"estimators over I={self.replications_used} replicates "
            f"(failures excluded: {self.failures}), n0={n}",
            f"{'estimator':<10} {'MIAE':>12} {'mc_se':>10} {'MISE':>12} {'mc_se':>10}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.estimator:<10} {row.miae:>12.4e} {row.miae_se:>10.2e} "
                f"{row.mise:>12.4e} {row.mise_se:>10.2e}"
            )
        return "\n".join(lines)

    def to_delimited(self) -> str:
        lines = ["estimator,metric,value,mc_se,I,n"]
        n = self.config.sizes[0]
        for row in self.rows:
            lines.append(f"{row.estimator},miae,{row.miae!r},{row.miae_se!r},"
                         f"{self.replications_used},{n}")
            lines.append(f"{row.estimator},mise,{row.mise!r},{row.mise_se!r},"
                         f"{self.replications_used},{n}")
        return "\n".join(lines)


def _replicate_errors(samples, grid) -> dict[str, tuple[float, float]]:
    """One replicate's (IAE, ISE) for each estimator, keyed as ``ESTIMATORS``;
    the uniform fit starts at the refined MLE."""
    refined = likelihood.fit(validate(list(samples), list(REFINED_TILTS)))
    uniform = likelihood.fit(validate(list(samples), list(UNIFORM_TILTS)), start=refined)
    cdfs = {"uniform": lambda x: inference.drm_cdf(uniform, x),
            "refined": lambda x: inference.drm_cdf(refined, x),
            "empirical": lambda x: inference.empirical_cdf(samples[0], x)}
    return {name: miae_mise(cdfs[name], exp2_cdf, grid) for name in ESTIMATORS}


def run_comparison(cfg: SimConfig) -> ComparisonTable:
    """Run the replicated estimator comparison; deterministic for a fixed config.

    Replicates whose fits fail (NoConvergence and kin) are counted and
    excluded; the run aborts if more than 10% fail.
    """
    per = {name: [] for name in ESTIMATORS}
    failures = 0
    for i in range(cfg.replications):
        samples = generate(np.random.SeedSequence(cfg.seed, spawn_key=(i,)), cfg.sizes)
        try:
            results = _replicate_errors(samples, cfg.grid)
        except NumericalError:
            failures += 1
            if failures > 0.1 * cfg.replications:
                raise ExcessiveFailures(failures, cfg.replications) from None
            continue
        for name, val in results.items():
            per[name].append(val)

    used = cfg.replications - failures
    rows = []
    arrays = {}
    for name in ESTIMATORS:
        arr = np.asarray(per[name], dtype=float).reshape(used, 2)
        arrays[name] = arr
        se = arr.std(axis=0, ddof=1) / np.sqrt(used) if used > 1 else np.zeros(2)
        rows.append(EstimatorSummary(
            estimator=name,
            miae=float(arr[:, 0].mean()), miae_se=float(se[0]),
            mise=float(arr[:, 1].mean()), mise_se=float(se[1]),
        ))
    return ComparisonTable(
        rows=tuple(rows),
        replications_used=used,
        failures=failures,
        config=cfg,
        per_replicate=arrays,
    )
