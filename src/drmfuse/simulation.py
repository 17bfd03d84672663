"""Monte Carlo harness: synthetic generators and MIAE/MISE estimator comparison.

The synthetic truth: reference Exp(rate 2), neighbors Gamma(shape 2, rate 2)
and Lognormal(log-mean 1, log-sd 1), giving the exact density ratios

    g1/g0 = exp(log 2 + log x)
    g2/g0 = exp(-1/2 - log(2 sqrt(2 pi)) + 2 x - (1/2) log^2 x)

so the refined tilts are (log x) and (x, log^2 x), and the refined model's
true flat theta is ``REFINED_TRUTH``. Each replicate fits the refined model
from that truth. Both refined tilts are subsets of the global tilt, so the
uniform fit then starts at the refined MLE, a point of the uniform model.
The profile log-likelihood is concave, so neither start changes the
maximizer, only the Newton path to it. Both fits share the replicate's fused
points, so the uniform, refined and empirical CDFs come from one binning of
them. Errors are integrated CDF errors over a regular grid: one replicate
contributes delta * sum_j |Fhat(M1 + j delta) - F(M1 + j delta)| (and its
square), and the harness averages over replicates.

Seeding: replicate i draws from numpy's default generator seeded with
SeedSequence(seed, spawn_key=(i,)), sampling the reference, gamma and
lognormal vectors in that order. The mapping is stable across runs, so equal
seeds give bit-identical tables.

Workers: the replicates 0..R-1 are split into contiguous chunks, one per CPU
in this process's affinity mask (at most R). The calling process runs the
first chunk and a forked child runs each other one. Each child sends one
pickled message back through a pipe, the pair ``(outcomes, raised)``: its
replicates' errors as far as it got, and ``raised``, ``None`` or, if an
exception other than a NumericalError stopped it, that exception pickled
(``None`` where it does not pickle) with its traceback text. The parent
counts the outcomes in replicate order, then raises a child's exception
where that child stopped, so tables, failure counts, the 10% abort and the
exception raised do not depend on the worker count.
Work a child does is not seen by profilers or tracers in the calling process,
nor counted in its ``RUSAGE_SELF``.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import pickle
import threading
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import likelihood
from ._kernels import at_or_below
from .core import (
    ArityMismatch,
    Basis,
    GLOBAL_TILT,
    NumericalError,
    Sample,
    TiltSpec,
    retilt,
    validate,
)

REFINED_TILTS = (
    TiltSpec((Basis.LOG,)),
    TiltSpec((Basis.IDENTITY, Basis.LOGSQ)),
)
UNIFORM_TILTS = (GLOBAL_TILT, GLOBAL_TILT)
# the true log density ratios above in the refined layout (alpha_1, alpha_2,
# then the betas of log x, and of x and log^2 x)
REFINED_TRUTH = np.array([
    np.log(2.0),
    -0.5 - np.log(2.0 * np.sqrt(2.0 * np.pi)),
    1.0,
    2.0,
    -0.5,
])
REFINED_TRUTH.flags.writeable = False

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
        if not math.isfinite(m2 - m1):
            raise ArityMismatch(f"grid bounds {m1!r} and {m2!r} must be finite, "
                                "and a finite distance apart")
        if _count(j, "grid size") < 1 or _count(self.replications, "replications") < 1:
            raise ArityMismatch("replications and grid size must be >= 1")
        if len(self.sizes) != 3:
            raise ArityMismatch(f"sizes must be three sample sizes, got {len(self.sizes)}")
        if any(_count(n, "sample size") < 1 for n in self.sizes):
            raise ArityMismatch("sample sizes must be >= 1")
        if _count(self.seed, "seed") < 0:
            raise ArityMismatch(f"seed must be >= 0, got {self.seed!r}")


def _count(value, what: str) -> int:
    """``value`` as an int if it is an integer (``operator.index``, so numpy
    ints pass), else ArityMismatch."""
    try:
        return operator.index(value)
    except TypeError:
        raise ArityMismatch(f"{what} must be an integer, got {value!r}") from None


def exp2_cdf(x):
    """True reference CDF, Exp(rate 2)."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, -np.expm1(-2.0 * x), 0.0)
    return float(out) if out.ndim == 0 else out


def generate(seed, sizes: tuple[int, int, int]) -> tuple[Sample, Sample, Sample]:
    """Draw (reference, gamma neighbor, lognormal neighbor) samples.

    ``seed`` may be an int, a SeedSequence, or a Generator, used as it is.
    """
    rng = np.random.default_rng(seed)
    n0, n1, n2 = sizes
    return (
        Sample.reference("exp", rng.exponential(scale=0.5, size=n0)),
        Sample.neighbor("gamma", rng.gamma(shape=2.0, scale=0.5, size=n1)),
        Sample.neighbor("lognormal", rng.lognormal(mean=1.0, sigma=1.0, size=n2)),
    )


def miae_mise(estimate, truth, grid: tuple[float, float, int]):
    """Single-replicate integrated absolute and squared CDF error.

    ``estimate`` and ``truth`` are callables on the 1-d array of evaluation
    points M1 + j*delta for j = 1..J. ``truth`` returns J values.
    ``estimate`` returns a (J, c) array with one column per estimator, giving
    a pair of length-c arrays.
    """
    m1, m2, j = grid
    if not (m2 > m1 and math.isfinite(m2 - m1) and _count(j, "grid size") >= 1):
        raise ArityMismatch(f"invalid grid {grid!r}: need finite M1 < M2 and J >= 1")
    delta = (m2 - m1) / j
    xs = m1 + delta * np.arange(1, j + 1)
    estimates = np.asarray(estimate(xs), dtype=float)
    # one contiguous row per estimator, so each sum adds in the 1-d order
    diff = np.ascontiguousarray(estimates.T) - np.asarray(truth(xs), dtype=float)
    return delta * np.abs(diff).sum(axis=-1), delta * (diff * diff).sum(axis=-1)


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


def _replicate_cdfs(uniform, refined, x) -> np.ndarray:
    """The uniform, refined and empirical CDF estimates at each point of the
    1-d ``x``, one column each in the order of ``ESTIMATORS``, from one
    binning of the fused points that both fits share.

    Each column is bitwise ``drm_cdf(uniform, x)``, ``drm_cdf(refined, x)``
    and ``empirical_cdf(reference, x)``: the empirical column sums 1.0 over
    the reference rows, which come first, and is divided by n0."""
    data = refined.data
    W = np.zeros((data.n, 3), order="F")
    W[:, 0] = uniform.weights
    W[:, 1] = refined.weights
    W[:data.n0, 2] = 1.0
    cdfs = at_or_below(data.t, x, W)
    cdfs[:, 2] /= data.n0
    return cdfs


def _replicate_errors(samples, grid) -> dict[str, tuple[float, float]]:
    """One replicate's (IAE, ISE) for each estimator, keyed as ``ESTIMATORS``.

    The samples are fused once: the uniform fit's data lays the global tilts
    out over the refined fit's fused points (``retilt``). The refined fit
    starts at ``REFINED_TRUTH`` and the uniform fit at the refined MLE, each
    coordinate placed at its (neighbor, column) in the uniform layout and 0
    elsewhere."""
    data = validate(list(samples), list(REFINED_TILTS))
    refined = likelihood.fit(data, start=REFINED_TRUTH)
    wide = retilt(data, list(UNIFORM_TILTS))
    start = np.zeros(wide.m + wide.r)
    start[[wide.pairs.index(p) for p in data.pairs]] = refined.theta
    uniform = likelihood.fit(wide, start=start)
    iae, ise = miae_mise(lambda x: _replicate_cdfs(uniform, refined, x), exp2_cdf, grid)
    return {name: (float(iae[k]), float(ise[k])) for k, name in enumerate(ESTIMATORS)}


def _workers(replications: int) -> int:
    """How many processes share ``replications`` replicates: one per CPU this
    process may run on, at most one per replicate.

    1 where ``os.fork`` is missing, or while another thread is alive: a
    forked child could inherit a lock that thread holds and never see it
    released."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(replications, cpus)


def _outcomes(cfg: SimConfig, indices: range):
    """Each replicate's errors, in index order; ``None`` for a replicate whose
    fits fail with a NumericalError. Any other exception propagates."""
    for i in indices:
        samples = generate(np.random.SeedSequence(cfg.seed, spawn_key=(i,)), cfg.sizes)
        try:
            errors = _replicate_errors(samples, cfg.grid)
        except NumericalError:
            errors = None
        yield errors


def _fork_chunk(cfg: SimConfig, indices: range):
    """Run ``_outcomes(cfg, indices)`` in a forked child: (its pid, the read
    end of its pipe, as a binary file).

    The child sends one pickled pair (module docstring) and leaves through
    ``os._exit``: it never flushes the parent's stdio buffers, runs atexit
    handlers or unwinds the parent's frames. The exit status is 0 only once
    the pair is written.
    A bare fork and pipe, not a process pool: on 10 replicates of 3x1000 a
    pool's start-up took most of the gain, and a spawned worker would import
    numpy afresh."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            outcomes, raised = [], None
            try:
                for errors in _outcomes(cfg, indices):
                    outcomes.append(errors)
            except Exception as exc:
                import traceback   # here, so that importing the package does not pay for it
                try:
                    pickled = pickle.dumps(exc)
                except Exception:   # whatever the exception's own pickling raises
                    pickled = None
                raised = (pickled, "".join(traceback.format_exception(exc)))
            with open(write_fd, "wb") as pipe:
                pickle.dump((outcomes, raised), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _collected(children: list):
    """The outcomes of the ``(pid, pipe)`` children, in order, as
    ``_outcomes`` would give them; each child's exception is raised where it
    stopped its chunk. Each pipe is read to EOF before its child is reaped,
    so a child never blocks on a full pipe, and a reaped child leaves
    ``children``."""
    while children:
        pid, pipe = children[0]
        with pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        del children[0]
        if status != 0:
            raise RuntimeError(f"replicate worker {pid} exited with status "
                               f"{os.waitstatus_to_exitcode(status)} without a complete result")
        outcomes, raised = pickle.loads(data)   # written by our own child
        yield from outcomes
        if raised is not None:
            pickled, text = raised
            try:
                exc = pickle.loads(pickled)
            except Exception:   # None, or whatever the exception's unpickling raises
                raise RuntimeError("a replicate worker raised an exception that does "
                                   f"not pickle:\n{text}") from None
            raise exc from RuntimeError(f"in a replicate worker:\n{text}")


def run_comparison(cfg: SimConfig) -> ComparisonTable:
    """Run the replicated estimator comparison; deterministic for a fixed config.

    Replicates whose fits fail (NoConvergence and kin) are counted and
    excluded; the run aborts if more than 10% fail. The replicates are
    shared between ``_workers`` processes (module docstring); the table does
    not depend on their number.
    """
    workers = _workers(cfg.replications)
    bounds = [cfg.replications * k // workers for k in range(workers + 1)]
    children = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_chunk(cfg, range(start, stop)))
        per = {name: [] for name in ESTIMATORS}
        failures = 0
        for results in itertools.chain(_outcomes(cfg, range(bounds[1])),
                                       _collected(children)):
            if results is None:
                failures += 1
                if failures > 0.1 * cfg.replications:
                    raise ExcessiveFailures(failures, cfg.replications)
                continue
            for name, val in results.items():
                per[name].append(val)
    finally:
        import signal   # here, so that importing the package does not pay for it
        for pid, pipe in children:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
            pipe.close()

    used = cfg.replications - failures
    rows = []
    for name in ESTIMATORS:
        arr = np.asarray(per[name], dtype=float).reshape(used, 2)
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
    )
