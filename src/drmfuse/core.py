"""Domain types: samples, tilt specifications, fused data, fitted models.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import copyreg
import enum
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class DrmError(Exception):
    """Base class for all library errors.

    A ``label`` attribute may be attached when the error is re-raised in a
    per-neighbor context (e.g. inside tilt refinement). Every library error
    pickles, with its message, ``label`` and attributes.
    """

    label: str | None = None

    def __reduce__(self):
        # rebuilt from args and attributes without calling __init__: the
        # default, type(self)(*args), hands a subclass's __init__ the message
        # in place of its own parameters
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__

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
        self.index = index


class EmptySample(InputError):
    def __init__(self, label: str):
        super().__init__(f"sample {label!r} is empty")


class DuplicateBasis(InputError):
    def __init__(self, basis: "Basis"):
        super().__init__(f"duplicate tilt basis element {basis.value!r}")


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
    """A matrix to invert is not positive definite or is ill-conditioned."""


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
    """A labeled vector of positive measurements (e.g. pCi/L), held in a
    read-only copy of the values given."""

    label: str
    values: np.ndarray
    role: Role

    def __post_init__(self):
        values = np.array(self.values, dtype=float, ndmin=1)
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
    at ``t``. ``sums[k]`` holds the column sums of ``X`` over neighbor k's
    sample. The flat parameter vector is ``(alpha_1..alpha_m, beta)``, and
    flat coordinate ``j`` belongs to neighbor ``nbr[j]`` and multiplies
    column ``col[j]`` of ``X``: ``alpha_k`` is the coefficient of neighbor
    k's constant column, and the betas follow in the order of each
    neighbor's tilt. ``pairs`` holds the same ``(nbr[j], col[j])`` as Python
    ints, and ``same[j, j']`` is True when coordinates j and j' belong to
    one neighbor. ``r = nbr.size - m`` counts the betas. ``obs[j]`` is
    ``sums[nbr[j], col[j]]``, so the alpha entries are the sample sizes.
    ``free`` lists the flat indices not pinned at 0 (an empty tilt pins its
    alpha). ``n0`` and ``n`` are the reference and fused sample sizes. All
    arrays are read-only.
    """

    reference: Sample
    neighbors: tuple[tuple[Sample, TiltSpec], ...]
    t: np.ndarray
    rho: np.ndarray
    # derived layout, computed once per set of tilts, in validate() or retilt()
    X: np.ndarray = field(repr=False)
    sums: np.ndarray = field(repr=False)
    nbr: np.ndarray = field(repr=False)
    col: np.ndarray = field(repr=False)
    pairs: tuple[tuple[int, int], ...] = field(repr=False)
    same: np.ndarray = field(repr=False)
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
    for i, s in enumerate(samples):
        if not isinstance(s, Sample):
            raise InputError(f"sample at position {i} is a {type(s).__name__}, not a Sample")
    ref = samples[0]
    if ref.role is not Role.REFERENCE:
        raise ArityMismatch(f"first sample {ref.label!r} must have the reference role")
    for s in samples[1:]:
        if s.role is not Role.NEIGHBOR:
            raise ArityMismatch(f"sample {s.label!r} must have the neighbor role")

    n_k = np.array([s.n for s in samples], dtype=float)
    t = _freeze(np.concatenate([s.values for s in samples]))
    X = np.empty((t.size, 4), order="F")   # a constant, then GLOBAL_TILT's basis
    X[:, 0] = 1.0
    X[:, 1] = t
    np.log(t, out=X[:, 2])
    np.multiply(X[:, 2], X[:, 2], out=X[:, 3])
    X = _freeze(X)
    # column sums of X over each neighbor's sample, in that sample's row block
    sums = np.add.reduceat(X, np.cumsum([s.n for s in samples[:-1]], dtype=np.intp), axis=0)
    return _lay_out(ref, samples[1:], t, _freeze(n_k / n_k[0]), X, _freeze(sums), tilts)


def retilt(data: FusedData, tilts: list[TiltSpec]) -> FusedData:
    """``data``'s fused samples under other tilts, one per neighbor, in
    order; the samples are not fused again, so both share ``t``, ``X`` and
    their Sample objects."""
    return _lay_out(data.reference, [s for s, _ in data.neighbors], data.t, data.rho, data.X,
                    data.sums, tilts)


def _lay_out(ref: Sample, neighbors: list[Sample], t: np.ndarray, rho: np.ndarray,
             X: np.ndarray, sums: np.ndarray, tilts: list[TiltSpec]) -> FusedData:
    """The FusedData of fused samples under ``tilts``: the flat layout, its
    observed statistics and the indices it leaves free; one tilt per
    neighbor, in order."""
    m = len(neighbors)
    if len(tilts) != m:
        raise ArityMismatch(f"{m} neighbor(s) but {len(tilts)} tilt spec(s)")
    for k, spec in enumerate(tilts):
        if not isinstance(spec, TiltSpec):
            raise InputError(f"tilt at position {k} is a {type(spec).__name__}, not a TiltSpec")
    nbr = list(range(m)) + [k for k, spec in enumerate(tilts) for _ in spec.basis]
    col = [0] * m + [1 + GLOBAL_TILT.basis.index(b) for spec in tilts for b in spec.basis]
    free = [k for k, spec in enumerate(tilts) if spec.r] + list(range(m, len(nbr)))
    return FusedData(
        reference=ref,
        neighbors=tuple(zip(neighbors, tilts)),
        t=t,
        rho=rho,
        X=X,
        sums=sums,
        nbr=_freeze(nbr, int),
        col=_freeze(col, int),
        pairs=tuple(zip(nbr, col)),
        same=_freeze(np.equal.outer(nbr, nbr), bool),
        obs=_freeze(sums[nbr, col]),
        free=_freeze(free, int),
        n0=ref.n,
        n=t.size,
    )


# ---------------------------------------------------------------------------
# Fitted model
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

