"""Domain types: samples, tilt specifications, fused data, parameters, step CDFs.

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
    def __init__(self, msg: str):
        super().__init__(msg)


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
    def __init__(self, msg: str):
        super().__init__(msg)


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


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asfortranarray(a, dtype=float)   # 2-d designs are read by column
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
    """Reference plus neighbor samples concatenated, with precomputed design.

    ``t`` preserves block order (reference first); ``rho[k] = n_k / n_0`` with
    ``rho[0] = 1``.
    """

    reference: Sample
    neighbors: tuple[tuple[Sample, TiltSpec], ...]
    t: np.ndarray
    rho: np.ndarray
    # derived design, computed once in validate()
    n_k: np.ndarray = field(repr=False)
    basis: tuple[np.ndarray, ...] = field(repr=False)
    suff: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.neighbors)

    @property
    def n0(self) -> int:
        return int(self.n_k[0])

    @property
    def n(self) -> int:
        return int(self.n_k.sum())

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(spec.r for _, spec in self.neighbors)

    @property
    def r(self) -> int:
        return sum(self.dims)

    @property
    def beta_offsets(self) -> np.ndarray:
        """Offsets of each neighbor's beta segment within the flat beta vector."""
        return np.concatenate([[0], np.cumsum(self.dims)]).astype(int)

    @property
    def alpha_free(self) -> np.ndarray:
        """True where alpha_k is a free parameter (empty tilts pin alpha_k = 0)."""
        return np.array([spec.r > 0 for _, spec in self.neighbors], dtype=bool)


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

    n_k = np.array([s.n for s in samples], dtype=float)
    t = _freeze(np.concatenate([s.values for s in samples]))
    rho = _freeze(n_k / n_k[0])
    basis = tuple(_freeze(basis_matrix(t, spec)) for spec in tilts)
    suff = tuple(
        _freeze(basis_matrix(samples[k + 1].values, tilts[k]).sum(axis=0))
        for k in range(len(tilts))
    )
    return FusedData(
        reference=ref,
        neighbors=tuple(zip(samples[1:], tilts)),
        t=t,
        rho=rho,
        n_k=_freeze(n_k),
        basis=basis,
        suff=suff,
    )


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Theta:
    """Model parameters: per-neighbor intercepts and tilt coefficients.

    ``beta`` holds one segment per neighbor; a neighbor with an empty tilt has
    a zero-length segment and its alpha pinned at 0.
    """

    alpha: np.ndarray
    beta: tuple[np.ndarray, ...]

    def __post_init__(self):
        alpha = _freeze(np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        beta = tuple(_freeze(np.atleast_1d(np.asarray(b, dtype=float)).reshape(-1))
                     for b in self.beta)
        if alpha.size != len(beta):
            raise ArityMismatch(
                f"{alpha.size} alphas but {len(beta)} beta segments"
            )
        for k, b in enumerate(beta):
            if b.size == 0 and alpha[k] != 0.0:
                raise ArityMismatch(
                    f"neighbor {k}: empty tilt requires alpha pinned at 0, got {alpha[k]!r}"
                )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def m(self) -> int:
        return self.alpha.size

    @property
    def flat(self) -> np.ndarray:
        """Concatenated (alpha, beta_1, ..., beta_m), length m + r."""
        return np.concatenate([self.alpha, *self.beta]) if self.m else np.empty(0)

    @classmethod
    def zeros(cls, dims: tuple[int, ...]) -> "Theta":
        return cls(np.zeros(len(dims)), tuple(np.zeros(rk) for rk in dims))

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: tuple[int, ...]) -> "Theta":
        flat = np.asarray(flat, dtype=float)
        m = len(dims)
        if flat.size != m + sum(dims):
            raise ArityMismatch(
                f"flat parameter vector has length {flat.size}, expected {m + sum(dims)}"
            )
        beta, off = [], m
        for rk in dims:
            beta.append(flat[off:off + rk])
            off += rk
        return cls(flat[:m].copy(), tuple(beta))

    def matches(self, data: FusedData) -> bool:
        return self.m == data.m and all(
            b.size == rk for b, rk in zip(self.beta, data.dims)
        )


# ---------------------------------------------------------------------------
# Fitted model and step CDFs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FittedModel:
    """Result of maximizing the profile empirical log-likelihood."""

    theta: Theta
    weights: np.ndarray          # p~_i over the fused points, sums to 1
    loglik: float
    score_norm: float            # inf-norm of the score at theta
    iterations: int
    S: np.ndarray                # (m+r)x(m+r) plug-in information, -H/n at theta
    Sigma: np.ndarray            # (m+r)x(m+r) asymptotic covariance of sqrt(n)(theta-theta0)
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
