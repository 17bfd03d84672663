"""Command-line interface: ingestion, the two-stage workflow, plot-ready output.

Input files are UTF-8 CSV with header ``region,period,value`` (comma
separated, decimal point). Subcommands:

  refine     per-period pairwise tilt selection (one row per period, plus a
             pooled row when several periods are selected)
  fit        pooled fit over the selected periods; prints estimates and SEs
  threshold  exceedance probabilities with both DRM and empirical intervals
  gof        (Ghat, Gtilde) pairs as two-column text
  simulate   the Monte Carlo estimator comparison

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import inference, likelihood, simulation
from .core import (
    DrmError,
    FusedData,
    GLOBAL_TILT,
    InputError,
    NumericalError,
    Sample,
    TiltSpec,
    validate,
)


class ConfigError(DrmError):
    """Bad flags or flag grammar (exit code 4)."""


class ParseError(InputError):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


class UnknownRegion(InputError):
    def __init__(self, region: str):
        super().__init__(f"region {region!r} has no rows in the input file")
        self.region = region


class EmptyAfterFilter(InputError):
    def __init__(self, region: str):
        super().__init__(f"region {region!r} has no usable rows after filtering")
        self.region = region


@dataclass(frozen=True)
class IngestResult:
    reference: Sample
    neighbors: tuple[Sample, ...]
    rejected: dict[str, int]          # per-region count of non-positive rows
    periods_seen: tuple[str, ...]

    def samples(self) -> list[Sample]:
        return [self.reference, *self.neighbors]


def _read_rows(path: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file") from None
        if [h.strip().lower() for h in header] != ["region", "period", "value"]:
            raise ParseError(1, f"expected header region,period,value, got {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(line_no, f"expected 3 fields, got {len(row)}")
            region, period, raw = (f.strip() for f in row)
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(line_no, f"bad value {raw!r}")
            yield region, period, value


def ingest(
    path: str,
    reference_region: str,
    neighbor_regions: list[str],
    period_filter: set[str] | None = None,
) -> IngestResult:
    """Partition file rows into reference and neighbor samples.

    Rows with value <= 0 are dropped and counted per region; rows for regions
    outside the requested set are ignored.
    """
    return _partition(_read_rows(path), _regions(reference_region, neighbor_regions),
                      period_filter)


def _regions(reference_region: str, neighbor_regions: list[str]) -> list[str]:
    wanted = [reference_region, *neighbor_regions]
    if len(set(wanted)) != len(wanted):
        raise ConfigError("reference and neighbor regions must be distinct")
    return wanted


def _partition(rows, wanted: list[str], period_filter: set[str] | None) -> IngestResult:
    """Samples for the regions in ``wanted`` (reference first) from parsed rows."""
    values: dict[str, list[float]] = {rg: [] for rg in wanted}
    rejected: dict[str, int] = {rg: 0 for rg in wanted}
    seen_regions: set[str] = set()
    periods: set[str] = set()
    for region, period, value in rows:
        periods.add(period)
        if region not in values:
            continue
        seen_regions.add(region)
        if period_filter is not None and period not in period_filter:
            continue
        if value <= 0.0:
            rejected[region] += 1
            continue
        values[region].append(value)
    for rg in wanted:
        if rg not in seen_regions:
            raise UnknownRegion(rg)
        if not values[rg]:
            raise EmptyAfterFilter(rg)
    return IngestResult(
        reference=Sample.reference(wanted[0], np.asarray(values[wanted[0]])),
        neighbors=tuple(Sample.neighbor(rg, np.asarray(values[rg])) for rg in wanted[1:]),
        rejected=rejected,
        periods_seen=tuple(sorted(periods)),
    )


def write_fused(data: FusedData, path: str, period: str = "all") -> None:
    """Write a fused dataset back to the ingestion CSV format."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "period", "value"])
        for v in data.reference.values:
            writer.writerow([data.reference.label, period, repr(float(v))])
        for sample, _ in data.neighbors:
            for v in sample.values:
                writer.writerow([sample.label, period, repr(float(v))])


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------

def _split_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def parse_tilt_string(text: str, n_neighbors: int) -> list[TiltSpec]:
    """Per-neighbor tilt grammar: semicolon-separated token lists,
    e.g. 'x,logx,log2x; x,log2x'."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != n_neighbors:
        raise ConfigError(
            f"tilt spec has {len(parts)} neighbor section(s), expected {n_neighbors}"
        )
    try:
        return [TiltSpec.parse(p) for p in parts]
    except InputError as e:
        raise ConfigError(str(e)) from None


def _resolve_periods(arg: str, available: tuple[str, ...]) -> list[str]:
    if arg.strip().lower() == "all":
        return list(available)
    requested = _split_list(arg)
    missing = [p for p in requested if p not in available]
    if missing:
        raise InputError(f"period label(s) {missing!r} not present in the file")
    return requested


def _resolve_tilts(arg: str, ing: IngestResult, alpha: float) -> list[TiltSpec]:
    mode = arg.strip()
    if mode == "global":
        return [GLOBAL_TILT for _ in ing.neighbors]
    if mode == "auto":
        return inference.refine_tilts(ing.reference, list(ing.neighbors), alpha)
    return parse_tilt_string(arg, len(ing.neighbors))


def _check_alpha(args) -> None:
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must be in (0, 1), got {args.alpha!r}")


def _fit_from_args(args):
    _check_alpha(args)
    period_filter = _periods_as_filter(args)
    ing = ingest(args.data, args.reference, _split_list(args.neighbors), period_filter)
    _report_rejections(ing)
    tilts = _resolve_tilts(args.tilt, ing, args.alpha)
    data = validate(ing.samples(), tilts)
    return likelihood.fit(data), ing, tilts


def _periods_as_filter(args) -> set[str] | None:
    if args.periods.strip().lower() == "all":
        return None
    labels = _split_list(args.periods)
    if not labels:
        raise ConfigError("--periods must be 'all' or a non-empty label list")
    return set(labels)


def _report_rejections(ing: IngestResult) -> None:
    dropped = {rg: k for rg, k in ing.rejected.items() if k}
    if dropped:
        msg = ", ".join(f"{rg}: {k}" for rg, k in sorted(dropped.items()))
        print(f"# dropped non-positive rows ({msg})", file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    fitted, ing, tilts = _fit_from_args(args)
    data = fitted.data
    n = data.n
    se = np.sqrt(np.maximum(np.diag(fitted.Sigma), 0.0) / n)
    lines = ["region,term,estimate,se"]
    offs = data.beta_offsets
    for k, (sample, spec) in enumerate(data.neighbors):
        alpha_se = float(se[k]) if spec.r else 0.0
        lines.append(f"{sample.label},alpha,{float(fitted.theta.alpha[k])!r},{alpha_se!r}")
        for j, b in enumerate(spec.basis):
            idx = data.m + offs[k] + j
            lines.append(
                f"{sample.label},{b.value},"
                f"{float(fitted.theta.beta[k][j])!r},{float(se[idx])!r}"
            )
    lines.append(f"# loglik={float(fitted.loglik)!r} iterations={fitted.iterations} "
                 f"score_norm={fitted.score_norm:.3e}")
    lines.append(f"# tilts: {'; '.join(spec.format() for spec in tilts)}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_refine(args) -> int:
    _check_alpha(args)
    neighbor_names = _split_list(args.neighbors)
    wanted = _regions(args.reference, neighbor_names)
    rows = list(_read_rows(args.data))    # read once, partitioned per period below
    periods = _resolve_periods(args.periods, _partition(rows, wanted, None).periods_seen)
    # tilt strings contain commas, so rows are CSV-quoted
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["period", *neighbor_names])

    def row(label: str, period_filter: set[str] | None):
        ing = _partition(rows, wanted, period_filter)
        tilts = inference.refine_tilts(ing.reference, list(ing.neighbors), args.alpha)
        writer.writerow([label, *(spec.format() for spec in tilts)])

    for period in periods:
        row(period, {period})
    if len(periods) > 1:
        row("pooled", set(periods))
    _emit(buf.getvalue().rstrip("\r\n").replace("\r\n", "\n"), args.out)
    return 0


def cmd_threshold(args) -> int:
    fitted, ing, _ = _fit_from_args(args)
    thresholds = [float(t) for t in _split_list(args.thresholds)]
    level = 1.0 - args.alpha
    gtilde = inference.drm_cdf(fitted)
    ghat = inference.empirical_cdf(ing.reference)
    lines = ["method,T,prob,se,ci_low,ci_high,ci_low_clamped,ci_high_clamped"]
    for method, cdf, source in (("drm", gtilde, fitted), ("empirical", ghat, ing.reference)):
        for est in inference.threshold_probability(cdf, source, thresholds, level):
            lo_c, hi_c = est.ci_clamped
            lines.append(
                f"{method},{est.T:g},{est.prob!r},{est.se!r},"
                f"{est.ci[0]!r},{est.ci[1]!r},{lo_c!r},{hi_c!r}"
            )
    _emit("\n".join(lines), args.out)
    return 0


def cmd_gof(args) -> int:
    fitted, _, _ = _fit_from_args(args)
    result = inference.gof_pairs(fitted)
    lines = ["ghat,gtilde"]
    for gh, gt in result.pairs:
        lines.append(f"{float(gh)!r},{float(gt)!r}")
    print(f"# max |Ghat - Gtilde| = {result.max_abs_diff:.6f}", file=sys.stderr)
    _emit("\n".join(lines), args.out)
    return 0


def cmd_simulate(args) -> int:
    sizes = tuple(int(s) for s in _split_list(args.sizes))
    if len(sizes) != 3:
        raise ConfigError("--sizes needs three comma-separated counts")
    g = _split_list(args.grid)
    if len(g) != 3:
        raise ConfigError("--grid needs M1,M2,J")
    cfg = simulation.SimConfig(
        replications=args.reps,
        sizes=sizes,
        grid=(float(g[0]), float(g[1]), int(g[2])),
        seed=args.seed,
    )
    table = simulation.run_comparison(cfg)
    print(table.to_text(), file=sys.stderr)
    _emit(table.to_delimited(), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_data_flags(p, tilt: bool):
    p.add_argument("data", help="CSV file with header region,period,value")
    p.add_argument("--reference", required=True, help="reference region name")
    p.add_argument("--neighbors", required=True, help="comma-separated neighbor regions")
    p.add_argument("--periods", default="all", help="'all' or comma-separated period labels")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="test level; confidence level is 1 - alpha (default 0.05)")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    if tilt:
        p.add_argument("--tilt", default="auto",
                       help="'auto', 'global', or per-neighbor spec like 'x,logx;x,log2x'")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drmfuse", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="pooled fit with estimates and standard errors")
    _add_data_flags(p, tilt=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("refine", help="per-period tilt selection table")
    _add_data_flags(p, tilt=False)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("threshold", help="threshold probabilities with CIs")
    _add_data_flags(p, tilt=True)
    p.add_argument("--thresholds", default="5,10,25,50,100,150,200",
                   help="comma-separated threshold list")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("gof", help="goodness-of-fit pairs (Ghat, Gtilde)")
    _add_data_flags(p, tilt=True)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("simulate", help="Monte Carlo estimator comparison")
    p.add_argument("--reps", type=int, default=300)
    p.add_argument("--sizes", default="1000,1000,1000")
    p.add_argument("--grid", default="0,10,1000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"drmfuse: config error: {e}", file=sys.stderr)
        return 4
    except (InputError, FileNotFoundError) as e:
        print(f"drmfuse: input error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"drmfuse: numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
