"""Domain types: samples, tilt specifications, fused data, fitted models, step CDFs.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class DrmError(Exception):
    """Base class for all library errors.

    A ``label`` attribute may be attached when the error is re-raised in a
    per-neighbor context (e.g. inside tilt refinement).
    """

    label: str | None = None

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if self.label is not None:
            return f"[{self.label}] {base}"
        return base


class InputError(DrmError):
    """Invalid user input (bad samples, tilts, files)."""


class NonPositiveValue(InputError):
    def __init__(self, label: str, index: int, value: float):
        super().__init__(f"sample {label!r} has non-positive value {value!r} at index {index}")
        self.sample_label = label
        self.index = index
        self.value = value


class EmptySample(InputError):
    def __init__(self, label: str):
        super().__init__(f"sample {label!r} is empty")
        self.sample_label = label


class DuplicateBasis(InputError):
    def __init__(self, basis: "Basis"):
        super().__init__(f"duplicate tilt basis element {basis.value!r}")
        self.basis = basis


class ArityMismatch(InputError):
    """Shapes or counts that do not fit together (samples, tilts, theta)."""


class NumericalError(DrmError):
    """Numerical failure during fitting or covariance estimation."""


class NonFinite(NumericalError):
    def __init__(self, what: str):
        super().__init__(f"non-finite values encountered in {what}")


class NoConvergence(NumericalError):
    def __init__(self, iterations: int, last_score_norm: float):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last score inf-norm {last_score_norm:.3e})"
        )
        self.iterations = iterations
        self.last_score_norm = last_score_norm


class SingularHessian(NumericalError):
    """A tilt basis function is constant over the fused data."""


class SingularMatrix(NumericalError):
    def __init__(self, msg: str, smallest_eigenvalue: float | None = None):
        super().__init__(msg)
        self.smallest_eigenvalue = smallest_eigenvalue


# ---------------------------------------------------------------------------
# Samples and tilts
# ---------------------------------------------------------------------------

class Role(enum.Enum):
    REFERENCE = "reference"
    NEIGHBOR = "neighbor"


class Basis(enum.Enum):
    """Tilt basis functions; values double as the CLI token grammar."""

    IDENTITY = "x"
    LOG = "logx"
    LOGSQ = "log2x"


def _freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.asfortranarray(a, dtype=dtype)   # 2-d designs are read by column
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Sample:
    """A labeled vector of positive measurements (e.g. pCi/L)."""

    label: str
    values: np.ndarray
    role: Role

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if values.ndim != 1:
            raise InputError(f"sample {self.label!r}: values must be one-dimensional")
        if values.size == 0:
            raise EmptySample(self.label)
        bad = ~(np.isfinite(values) & (values > 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise NonPositiveValue(self.label, i, float(values[i]))
        object.__setattr__(self, "values", _freeze(values))

    @classmethod
    def reference(cls, label: str, values) -> "Sample":
        return cls(label, values, Role.REFERENCE)

    @classmethod
    def neighbor(cls, label: str, values) -> "Sample":
        return cls(label, values, Role.NEIGHBOR)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class TiltSpec:
    """Ordered basis-function list for one neighbor; empty means equidistributed."""

    basis: tuple[Basis, ...] = ()

    def __post_init__(self):
        basis = tuple(self.basis)
        seen = set()
        for b in basis:
            if not isinstance(b, Basis):
                raise InputError(f"tilt element {b!r} is not a Basis")
            if b in seen:
                raise DuplicateBasis(b)
            seen.add(b)
        object.__setattr__(self, "basis", basis)

    @property
    def r(self) -> int:
        return len(self.basis)

    def format(self) -> str:
        """Render as the CLI token string; '-' for the empty tilt."""
        return ",".join(b.value for b in self.basis) if self.basis else "-"

    @classmethod
    def parse(cls, text: str) -> "TiltSpec":
        """Parse a comma-separated token list from {x, logx, log2x}; '-' or '' is empty."""
        text = text.strip()
        if text in ("", "-"):
            return cls(())
        tokens = [t.strip() for t in text.split(",")]
        by_value = {b.value: b for b in Basis}
        out = []
        for tok in tokens:
            if tok not in by_value:
                raise InputError(
                    f"unknown tilt token {tok!r} (expected one of {sorted(by_value)})"
                )
            out.append(by_value[tok])
        return cls(tuple(out))


GLOBAL_TILT = TiltSpec((Basis.IDENTITY, Basis.LOG, Basis.LOGSQ))


def basis_matrix(values: np.ndarray, spec: TiltSpec) -> np.ndarray:
    """Evaluate a tilt's basis functions at each value; shape (len(values), r),
    column-major."""
    out = np.empty((values.size, spec.r), order="F")
    logs = np.log(values)
    for j, b in enumerate(spec.basis):
        if b is Basis.IDENTITY:
            out[:, j] = values
        elif b is Basis.LOG:
            out[:, j] = logs
        else:
            out[:, j] = logs * logs
    return out


# ---------------------------------------------------------------------------
# Fused data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FusedData:
    """Reference plus neighbor samples concatenated, with one shared design.

    ``t`` preserves block order (reference first); ``rho[k] = n_k / n_0`` with
    ``rho[0] = 1``. Every tilt is a subset of the ``GLOBAL_TILT`` basis, so
    the design ``X = (1, x, log x, log^2 x)`` holds that basis once, after a
    constant column: column ``1 + c`` is ``GLOBAL_TILT.basis[c]`` evaluated
    at ``t``. The flat parameter vector is ``(alpha_1..alpha_m, beta)``, and
    flat coordinate ``j`` belongs to neighbor ``nbr[j]`` and multiplies
    column ``col[j]`` of ``X``: ``alpha_k`` is the coefficient of neighbor
    k's constant column, and the betas follow in the order of each
    neighbor's tilt. ``r = nbr.size - m`` counts the betas. ``obs[j]`` is the
    sum of column ``col[j]`` over neighbor ``nbr[j]``'s sample, so the alpha
    entries are the sample sizes. ``free`` lists the flat indices not pinned
    at 0 (an empty tilt pins its alpha). ``n0`` and ``n`` are the reference
    and fused sample sizes. All arrays are read-only.
    """

    reference: Sample
    neighbors: tuple[tuple[Sample, TiltSpec], ...]
    t: np.ndarray
    rho: np.ndarray
    # derived layout, computed once in validate()
    n_k: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    nbr: np.ndarray = field(repr=False)
    col: np.ndarray = field(repr=False)
    obs: np.ndarray = field(repr=False)
    free: np.ndarray = field(repr=False)
    n0: int = field(repr=False)
    n: int = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.neighbors)

    @property
    def r(self) -> int:
        return self.nbr.size - self.m


def validate(samples: list[Sample], tilts: list[TiltSpec]) -> FusedData:
    """Check model preconditions and assemble the fused dataset.

    ``samples[0]`` is the reference; one tilt per neighbor, in order.
    """
    if len(samples) < 1:
        raise ArityMismatch("need at least a reference sample")
    if len(tilts) != len(samples) - 1:
        raise ArityMismatch(
            f"{len(samples) - 1} neighbor(s) but {len(tilts)} tilt spec(s)"
        )
    ref = samples[0]
    if ref.role is not Role.REFERENCE:
        raise ArityMismatch(f"first sample {ref.label!r} must have the reference role")
    for s in samples[1:]:
        if s.role is not Role.NEIGHBOR:
            raise ArityMismatch(f"sample {s.label!r} must have the neighbor role")

    m = len(tilts)
    n_k = np.array([s.n for s in samples], dtype=float)
    t = _freeze(np.concatenate([s.values for s in samples]))
    rho = _freeze(n_k / n_k[0])
    X = np.empty((t.size, 4), order="F")
    X[:, 0] = 1.0
    X[:, 1:] = basis_matrix(t, GLOBAL_TILT)
    X = _freeze(X)
    nbr = list(range(m)) + [k for k, spec in enumerate(tilts) for _ in spec.basis]
    col = [0] * m + [1 + GLOBAL_TILT.basis.index(b) for spec in tilts for b in spec.basis]
    # column sums of X over each neighbor's sample, in that sample's row block
    ends = np.cumsum([s.n for s in samples])
    sums = np.array([X[a:b].sum(axis=0) for a, b in zip(ends[:-1], ends[1:])]).reshape(m, 4)
    free = [k for k, spec in enumerate(tilts) if spec.r] + list(range(m, len(nbr)))
    return FusedData(
        reference=ref,
        neighbors=tuple(zip(samples[1:], tilts)),
        t=t,
        rho=rho,
        n_k=_freeze(n_k),
        X=X,
        nbr=_freeze(nbr, int),
        col=_freeze(col, int),
        obs=_freeze(sums[nbr, col]),
        free=_freeze(free, int),
        n0=int(n_k[0]),
        n=int(n_k.sum()),
    )


# ---------------------------------------------------------------------------
# Fitted model and step CDFs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FittedModel:
    """Result of maximizing the profile empirical log-likelihood.

    ``theta`` is the read-only flat vector ``(alpha_1..alpha_m, beta)`` in
    ``data``'s layout (see ``FusedData``); an empty tilt's alpha is 0. ``U`` is
    the read-only (n, m) array of ratios rho_k w_k(t_i) / D_i at theta, from
    the final iterate's exponent pass."""

    theta: np.ndarray
    weights: np.ndarray          # p~_i over the fused points, sums to 1
    loglik: float
    score_norm: float            # inf-norm of the score at theta
    iterations: int
    S: np.ndarray                # (m+r)x(m+r) plug-in information, -H/n at theta
    Sigma: np.ndarray            # (m+r)x(m+r) asymptotic covariance of sqrt(n)(theta-theta0)
    U: np.ndarray                # (n, m) ratios rho_k w_k(t_i) / D_i at theta
    data: FusedData


@dataclass(frozen=True, eq=False)
class StepCDF:
    """Right-continuous step CDF over sorted unique support points."""

    points: np.ndarray
    cum: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        cum = np.asarray(self.cum, dtype=float)
        if points.shape != cum.shape or points.ndim != 1:
            raise InputError("points and cum must be matching 1-d arrays")
        if points.size and np.any(np.diff(points) <= 0):
            raise InputError("points must be strictly increasing")
        if cum.size and np.any(np.diff(cum) < -1e-12):
            raise InputError("cumulative masses must be nondecreasing")
        object.__setattr__(self, "points", _freeze(points))
        object.__setattr__(self, "cum", _freeze(cum))

    @classmethod
    def from_weighted(cls, points: np.ndarray, masses: np.ndarray) -> "StepCDF":
        """Build from (possibly tied, unsorted) points with attached masses."""
        points = np.asarray(points, dtype=float)
        masses = np.asarray(masses, dtype=float)
        uniq, inverse = np.unique(points, return_inverse=True)
        merged = np.bincount(inverse, weights=masses, minlength=uniq.size)
        return cls(uniq, np.cumsum(merged))

    def __call__(self, x):
        """Evaluate the CDF at scalar or array x (right-continuous)."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.points, x, side="right")
        out = np.where(idx > 0, self.cum[np.minimum(idx - 1, self.cum.size - 1)], 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def total(self) -> float:
        return float(self.cum[-1]) if self.cum.size else 0.0
