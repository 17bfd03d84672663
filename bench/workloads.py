"""The three benchmark workloads: seeded inputs, the CLI op, and its output checks.

Every op is one ``drmfuse`` command. Its inputs are generated here from a
``numpy.random.SeedSequence``; the package receives only the generated CSV
file (or, for ``simulate``, a seed for its own generator). Checks either
recompute a number independently (the empirical rows) or test structure and
consistency (the DRM rows and tilt tables). Reference cases compare whole
outputs against ``reference.json``, which was recorded from the package.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

REFERENCE = "ref"
NEIGHBORS = ("n1", "n2", "n3", "n4")
TILT_TOKENS = ("x", "logx", "log2x")

# Floats must match the recorded reference to this relative tolerance (plus
# an absolute floor for interval ends near 0). Reordered or batched sums move
# results by ~1e-13; a different Newton stopping point by ~1e-8.
RTOL = 1e-6
ATOL = 1e-9

_Z975 = NormalDist().inv_cdf(0.975)   # the CLI's default --alpha 0.05


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark expects."""


@dataclass(frozen=True)
class Op:
    argv: list[str]
    items: int
    expect: dict = field(default_factory=dict, repr=False)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(text.splitlines()) if row]


def compare_reference(parsed: dict, recorded: dict) -> None:
    """Exact fields must be equal; floats equal to RTOL/ATOL."""
    require(parsed["exact"] == recorded["exact"], "exact fields differ from reference")
    got, want = parsed["floats"], recorded["floats"]
    require(len(got) == len(want), "float count differs from reference")
    for j, (a, b) in enumerate(zip(got, want)):
        require(_close(a, b), f"float {j}: {a!r} vs reference {b!r}")


def _draw_regions(rng: np.random.Generator, period: int, size: int) -> dict[str, np.ndarray]:
    """A lognormal reference and four right-skewed neighbors of ~``size`` values.

    Two neighbors drift with ``period`` so that selected tilts differ by period.
    """
    def n():
        return int(rng.integers(int(0.9 * size), int(1.1 * size) + 1))

    return {
        REFERENCE: rng.lognormal(1.0, 0.8, n()),
        "n1": rng.lognormal(1.1 + 0.05 * period, 0.7, n()),
        "n2": rng.gamma(2.0, 1.5, n()),
        "n3": 3.5 * rng.weibull(1.4, n()),
        "n4": rng.gamma(3.5, 0.8 + 0.05 * period, n()),
    }


def _write_csv(path: Path, periods: list[dict[str, np.ndarray]]) -> None:
    lines = ["region,period,value"]
    for p, regions in enumerate(periods):
        for region, values in regions.items():
            lines.extend(f"{region},P{p + 1},{float(v)!r}" for v in values)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class MonteCarlo:
    name = "mc_sim"
    why = ("the paper's simulation design: many large-n Newton fits (3x1000, two estimators "
           "per replicate); shows kernel rewrites and batching across replicates")
    reps = 10
    grid = (0.0, 10.0, 1000)

    def make_op(self, ss: np.random.SeedSequence, workdir: Path) -> Op:
        seed = int(ss.generate_state(1)[0])
        argv = ["simulate", "--reps", str(self.reps), "--sizes", "1000,1000,1000",
                "--seed", str(seed)]
        return Op(argv, self.reps, {"seed": seed})

    def parse(self, stdout: str) -> dict:
        rows = _csv_rows(stdout)
        require(rows[:1] == [["estimator", "metric", "value", "mc_se", "I", "n"]],
                 "simulate header")
        body = rows[1:]
        require(all(len(r) == 6 for r in body), "simulate row width")
        return {
            "exact": [[r[0], r[1], r[4], r[5]] for r in body],
            "floats": [float(x) for r in body for x in (r[2], r[3])],
        }

    def check(self, op: Op, parsed: dict) -> int:
        """Return the number of replicates the harness excluded as failed."""
        exact, floats = parsed["exact"], parsed["floats"]
        want = [(e, m) for e in ("uniform", "refined", "empirical") for m in ("miae", "mise")]
        require([(r[0], r[1]) for r in exact] == want, "simulate rows")
        used = int(exact[0][2])
        require(all(int(r[2]) == used and r[3] == "1000" for r in exact), "simulate I/n")
        require(0 < used <= self.reps, "replicates used")
        require(all(math.isfinite(v) and v >= 0.0 for v in floats), "simulate values")
        if used == self.reps:
            # Empirical rows, recomputed from the documented replicate seeding.
            errs = np.array([self._empirical_errors(op.expect["seed"], i)
                             for i in range(self.reps)])
            se = errs.std(axis=0, ddof=1) / math.sqrt(self.reps)
            expect = [errs[:, 0].mean(), se[0], errs[:, 1].mean(), se[1]]
            for a, b in zip(floats[8:12], expect):
                require(_close(a, float(b)), f"empirical row {a!r} vs {float(b)!r}")
        return self.reps - used

    def _empirical_errors(self, seed: int, i: int) -> tuple[float, float]:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        x = np.sort(rng.exponential(scale=0.5, size=1000))
        m1, m2, j = self.grid
        delta = (m2 - m1) / j
        xs = m1 + delta * np.arange(1, j + 1)
        diff = np.searchsorted(x, xs, side="right") / x.size + np.expm1(-2.0 * xs)
        return float(delta * np.abs(diff).sum()), float(delta * (diff * diff).sum())


class ThresholdGrid:
    name = "threshold_grid"
    why = ("one fit (n~10000, m=4, global tilt) then ~30 exceedance intervals; stresses "
           "asymptotics.blocks_at and sigma_t, rebuilt for every threshold")
    n_thresholds = 30

    def make_op(self, ss: np.random.SeedSequence, workdir: Path) -> Op:
        rng = np.random.default_rng(ss)
        regions = _draw_regions(rng, 0, 2000)
        path = workdir / "threshold.csv"
        _write_csv(path, [regions])
        ref = regions[REFERENCE]
        T = np.quantile(ref, np.linspace(0.05, 0.99, self.n_thresholds))
        argv = ["threshold", str(path), "--reference", REFERENCE,
                "--neighbors", ",".join(NEIGHBORS), "--tilt", "global", "--periods", "all",
                "--thresholds", ",".join(repr(float(t)) for t in T)]
        return Op(argv, 2 * self.n_thresholds, {"ref": ref, "T": T})

    def parse(self, stdout: str) -> dict:
        rows = _csv_rows(stdout)
        require(rows[:1] == [["method", "T", "prob", "se", "ci_low", "ci_high",
                               "ci_low_clamped", "ci_high_clamped"]], "threshold header")
        body = rows[1:]
        require(all(len(r) == 8 for r in body), "threshold row width")
        return {
            "exact": [r[:2] for r in body],
            "floats": [float(x) for r in body for x in r[2:]],
        }

    def check(self, op: Op, parsed: dict) -> int:
        T, ref = op.expect["T"], op.expect["ref"]
        k = self.n_thresholds
        want = [[method, f"{t:g}"] for method in ("drm", "empirical") for t in T]
        require(parsed["exact"] == want, "threshold rows")
        vals = np.asarray(parsed["floats"]).reshape(2 * k, 6)
        for prob, se, lo, hi, lo_c, hi_c in vals:
            require(0.0 <= prob <= 1.0 and math.isfinite(se) and se >= 0.0, "prob/se range")
            require(_close(lo, prob - _Z975 * se) and _close(hi, prob + _Z975 * se),
                     "interval is not prob -/+ z*se")
            require(lo_c == max(lo, 0.0) and hi_c == min(hi, 1.0), "clamped interval")
        require(bool(np.all(np.diff(vals[:k, 0]) <= 0.0)), "drm exceedance not monotone")
        n0 = ref.size
        for (prob, se, *_), t in zip(vals[k:], T):
            p = float(np.count_nonzero(ref > t)) / n0
            require(_close(prob, p) and _close(se, math.sqrt(p * (1.0 - p) / n0)),
                     f"empirical row at T={t!r}")
        return 0


class RefinePeriods:
    name = "refine_periods"
    why = ("pairwise tilt selection over 4 periods x 5 regions x ~250 values: many small m=1 "
           "fits, chi-square/Z tests and six CSV reads per command")
    periods = 4

    def make_op(self, ss: np.random.SeedSequence, workdir: Path) -> Op:
        rng = np.random.default_rng(ss)
        path = workdir / "refine.csv"
        _write_csv(path, [_draw_regions(rng, p, 250) for p in range(self.periods)])
        argv = ["refine", str(path), "--reference", REFERENCE,
                "--neighbors", ",".join(NEIGHBORS), "--periods", "all"]
        return Op(argv, (self.periods + 1) * len(NEIGHBORS))

    def parse(self, stdout: str) -> dict:
        return {"exact": _csv_rows(stdout), "floats": []}

    def check(self, op: Op, parsed: dict) -> int:
        table = parsed["exact"]
        require(table[:1] == [["period", *NEIGHBORS]], "refine header")
        labels = [f"P{p + 1}" for p in range(self.periods)] + ["pooled"]
        require([r[0] for r in table[1:]] == labels, "refine period rows")
        for row in table[1:]:
            require(len(row) == 1 + len(NEIGHBORS), "refine row width")
            for cell in row[1:]:
                tokens = [] if cell == "-" else cell.split(",")
                require(bool(tokens) or cell == "-", f"empty tilt cell {cell!r}")
                require(tokens == [t for t in TILT_TOKENS if t in tokens],
                         f"tilt cell {cell!r}")
        return 0


WORKLOADS = {w.name: w for w in (MonteCarlo(), ThresholdGrid(), RefinePeriods())}
WORKLOAD_INDEX = {name: i for i, name in enumerate(WORKLOADS)}
