"""Command-line interface: ingestion, the two-stage workflow, plot-ready output.

Input files are UTF-8 CSV with header ``region,period,value`` (comma
separated, decimal point), with or without a leading byte-order mark. Fields
follow CSV quoting; blank and whitespace-only lines are skipped and fields
are stripped. A row without three fields or with a value that is not a
finite number is an input error naming the first such line. The reference
and neighbor regions must be distinct; rows of other regions are ignored,
and rows with a value <= 0 are dropped and counted on stderr. Every data
subcommand reads its file once, into the sample list that the fit takes.
numpy's C tokenizer (``np.loadtxt``) reads the file in blocks of rows. A
file it rejects or may read differently, such as one with a whitespace-only
line, a value in Python-only syntax (``1_000``), a value that is not finite,
a NUL or a line longer than ``csv.field_size_limit()``, is read again by the
csv module, which checks each record as it reads it, gives the same columns
and names the first faulty line.
Subcommands:

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
import errno
import functools
import io
import itertools
import math
import os
import sys
from collections.abc import Collection

import numpy as np

from . import inference, likelihood, simulation
from .core import (
    ArityMismatch,
    DrmError,
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


class EmptyAfterFilter(InputError):
    def __init__(self, region: str):
        super().__init__(f"region {region!r} has no usable rows after filtering")


# Rows read per block. A block bounds the reader's working memory whatever the
# file size, and is large enough that per-block numpy calls are amortized.
# numpy's C tokenizer (``np.loadtxt``) reads each block; a file it rejects,
# or may read differently from the csv module, is read again from its start
# by ``csv.reader`` (see ``_read_rows``).
_BLOCK_ROWS = 1024

_HEADER = ["region", "period", "value"]

# One row as ``np.loadtxt`` reads it: the two raw label fields and the value.
_ROW = np.dtype([("region", object), ("period", object), ("value", float)])

# A row appended to every block ``np.loadtxt`` reads, and dropped from its
# result. A block that ends inside a quoted field, which the csv module would
# carry on into the next block, swallows it into that field and fails.
_SENTINEL = "_,_,0\n"


def _read_rows(path: str):
    """The file's columns: ``((region_labels, region_codes), (period_labels,
    period_codes), values)``.

    Labels are the sorted distinct stripped fields, and each code array holds
    one index into its labels per data row. Rows are read in blocks of
    ``_BLOCK_ROWS`` lines by numpy's tokenizer (``_loadtxt_blocks``). If it
    rejects the header or any block, finds a value that is not finite, or
    meets input it may read differently from the csv module (a NUL, a line
    longer than ``csv.field_size_limit()``, a block ending inside a quoted
    field, bytes that are not UTF-8), the whole file is read again by
    ``csv.reader`` (``_csv_blocks``). That route has the wider grammar (a
    quoted header, whitespace-only lines, Python number syntax such as
    ``1_000``) and names the first faulty line in its error. Both routes give
    the same columns on every file numpy accepts. A file that cannot be read
    or decoded is an InputError, and a CSV syntax fault a ParseError.
    """
    try:
        try:
            return _columns(path, _loadtxt_blocks)
        except ValueError:   # UnicodeDecodeError included
            return _columns(path, _csv_blocks)
    except OSError as e:
        raise InputError(str(e)) from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e})") from None


def _columns(path: str, blocks):
    """``_read_rows``'s columns, from the (region fields, period fields,
    values) blocks that ``blocks`` reads from the open file."""
    region_code: dict[str, int] = {}
    period_code: dict[str, int] = {}
    regions, periods, values = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for region, period, value in blocks(fh):
            regions.append(_codes(region, region_code))
            periods.append(_codes(period, period_code))
            values.append(value)
    return (_labels(region_code, np.concatenate(regions)),
            _labels(period_code, np.concatenate(periods)), np.concatenate(values))


def _loadtxt_blocks(fh):
    """The data rows' blocks, tokenized by ``np.loadtxt``.

    Raises ValueError at a header or a block that the csv route might read
    otherwise.
    """
    limit = csv.field_size_limit()
    header = fh.readline()
    if len(header) > limit or [h.strip().lower() for h in header.split(",")] != _HEADER:
        raise ValueError("header")
    while block := list(itertools.islice(fh, _BLOCK_ROWS)):
        text = "".join(block)
        # numpy reads a NUL, which the csv module rejects on Python 3.10, and
        # fields longer than csv.field_size_limit(), which it always rejects
        if "\0" in text or (len(text) > limit and max(map(len, block)) > limit):
            raise ValueError("a NUL or a line longer than the csv field limit")
        block.append(_SENTINEL)
        rows = np.loadtxt(block, delimiter=",", quotechar='"', comments=None, dtype=_ROW,
                          ndmin=1)[:-1]
        if not np.isfinite(rows["value"]).all():
            raise ValueError("non-finite value")
        yield rows["region"].tolist(), rows["period"].tolist(), rows["value"]


def _csv_blocks(fh):
    """The data rows' blocks, tokenized by ``csv.reader``.

    Each record is checked as the reader yields it, so the first faulty
    record in the file is the one reported, by the physical line it starts
    on (a quoted field may span lines). Blank and whitespace-only records are
    skipped; each block but the last holds ``_BLOCK_ROWS`` records that are not.
    """
    reader = csv.reader(fh)
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file") from None
        if [h.strip().lower() for h in header] != _HEADER:
            raise ParseError(1, f"expected header region,period,value, got {header!r}")
        regions, periods, values, start = [], [], [], reader.line_num + 1
        for row in reader:
            line_no, start = start, reader.line_num + 1
            try:
                region, period, raw = row
                value = float(raw.strip())
                if not math.isfinite(value):
                    raise ValueError
            except ValueError:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise ParseError(line_no, f"bad value {row[2].strip()!r}" if len(row) == 3
                                 else f"expected 3 fields, got {len(row)}") from None
            regions.append(region)
            periods.append(period)
            values.append(value)
            if len(values) == _BLOCK_ROWS:
                yield regions, periods, np.array(values)
                regions, periods, values = [], [], []
        yield regions, periods, np.array(values)
    except csv.Error as e:
        raise ParseError(reader.line_num, str(e)) from None


def _codes(fields: list[str], code: dict[str, int]) -> np.ndarray:
    """Each raw field's code, adding the fields ``code`` has not seen yet."""
    for field in dict.fromkeys(fields):
        code.setdefault(field, len(code))
    return np.fromiter(map(code.__getitem__, fields), np.intp, len(fields))


def _labels(code: dict[str, int], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted stripped labels, and the raw-field codes mapped to indices into them."""
    stripped = [field.strip() for field in code]    # in code order
    labels = sorted(set(stripped))
    index = {label: i for i, label in enumerate(labels)}
    return tuple(labels), np.array([index[s] for s in stripped], np.intp)[codes]


def _partition(regions, periods, values: np.ndarray, wanted: list[str],
               period_filter: Collection[str]) -> tuple[list[Sample], dict[str, int]]:
    """The samples of the regions in ``wanted`` (reference first), as
    ``validate`` takes them, from the columns ``_read_rows`` returns, and each
    region's count of dropped rows (value <= 0). Rows of other regions, and
    of periods not in ``period_filter``, are ignored."""
    region_labels, region_codes = regions
    period_labels, period_codes = periods
    index = {label: i for i, label in enumerate(region_labels)}
    positive = values > 0.0
    in_filter = np.array([p in period_filter for p in period_labels], bool)[period_codes]
    samples: list[np.ndarray] = []
    rejected: dict[str, int] = {}
    for rg in wanted:
        if rg not in index:
            raise UnknownRegion(rg)
        rows = (region_codes == index[rg]) & in_filter
        kept = values[rows & positive]
        if not kept.size:
            raise EmptyAfterFilter(rg)
        rejected[rg] = int(np.count_nonzero(rows)) - kept.size
        samples.append(kept)
    return [Sample.reference(wanted[0], samples[0]),
            *(Sample.neighbor(rg, v) for rg, v in zip(wanted[1:], samples[1:]))], rejected


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------

def _split_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _number(flag: str, token: str, kind=float):
    """One finite number of type ``kind`` from a flag's value; ConfigError if not."""
    try:
        value = kind(token)
    except ValueError:
        raise ConfigError(f"{flag}: {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{flag}: {token!r} is not finite")
    return value


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
    """The --periods labels in request order, without repeats; the file's labels for 'all'."""
    if arg.strip().lower() == "all":
        return list(available)
    requested = list(dict.fromkeys(_split_list(arg)))
    if not requested:
        raise ConfigError("--periods must be 'all' or a non-empty label list")
    missing = [p for p in requested if p not in available]
    if missing:
        raise InputError(f"period label(s) {missing!r} not present in the file")
    return requested


def _resolve_tilts(arg: str, samples: list[Sample], alpha: float) -> list[TiltSpec]:
    mode = arg.strip()
    if mode == "global":
        return [GLOBAL_TILT] * (len(samples) - 1)
    if mode == "auto":
        return inference.refine_tilts(samples[0], samples[1:], alpha)
    return parse_tilt_string(arg, len(samples) - 1)


def _check_alpha(args) -> None:
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must be in (0, 1), got {args.alpha!r}")


def _read_args(args):
    """The prologue of every data subcommand: check --alpha and that the
    regions are distinct, read the file, and resolve --periods against it.
    Returns the wanted regions (reference first), the file's columns and the
    selected period labels."""
    _check_alpha(args)
    wanted = [args.reference, *_split_list(args.neighbors)]
    if len(set(wanted)) != len(wanted):
        raise ConfigError("reference and neighbor regions must be distinct")
    regions, periods, values = _read_rows(args.data)
    return wanted, (regions, periods, values), _resolve_periods(args.periods, periods[0])


def _fit_from_args(args):
    wanted, columns, selected = _read_args(args)
    samples, rejected = _partition(*columns, wanted, set(selected))
    _report_rejections(rejected)
    tilts = _resolve_tilts(args.tilt, samples, args.alpha)
    return likelihood.fit(validate(samples, tilts)), samples, tilts


def _report_rejections(rejected: dict[str, int]) -> None:
    dropped = {rg: k for rg, k in rejected.items() if k}
    if dropped:
        msg = ", ".join(f"{rg}: {k}" for rg, k in sorted(dropped.items()))
        print(f"# dropped non-positive rows ({msg})", file=sys.stderr)


def _check_out(out: str | None) -> None:
    """Raise, before any work, the InputError that ``_emit`` would raise for
    an ``out`` that is a directory or whose directory is missing. Nothing is
    created."""
    if not out:
        return
    if os.path.isdir(out):
        raise InputError(f"cannot write {out!r}: {os.strerror(errno.EISDIR)}")
    if not os.path.exists(os.path.dirname(out) or "."):
        raise InputError(f"cannot write {out!r}: {os.strerror(errno.ENOENT)}")


def _emit(text: str, out: str | None) -> None:
    """Print ``text``, or write it to the file ``out``, ending it with one
    newline if it has none; a file that cannot be written is an InputError."""
    text = text if text.endswith("\n") else text + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write {out!r}: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    fitted, _, tilts = _fit_from_args(args)
    data = fitted.data
    theta = fitted.theta
    se = np.zeros(theta.size)   # a pinned alpha is reported with se 0
    se[data.free] = np.sqrt(np.maximum(np.diag(fitted.Sigma)[data.free], 0.0) / data.n)
    # per neighbor: its alpha row (the constant column), then its betas in tilt order
    terms = ["alpha"] + [b.value for b in GLOBAL_TILT.basis]
    buf = io.StringIO()   # labels are CSV-quoted where they need it
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["region", "term", "estimate", "se"])
    for i in np.argsort(data.nbr, kind="stable"):
        label = data.neighbors[data.nbr[i]][0].label
        writer.writerow([label, terms[data.col[i]], repr(float(theta[i])), repr(float(se[i]))])
    buf.write(f"# loglik={float(fitted.loglik)!r} iterations={fitted.iterations} "
              f"score_norm={fitted.score_norm:.3e}\n")
    buf.write(f"# tilts: {'; '.join(spec.format() for spec in tilts)}")
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_refine(args) -> int:
    wanted, columns, periods = _read_args(args)   # partitioned per period below
    if not periods:   # no data rows, so no region has any
        raise UnknownRegion(wanted[0])
    # tilt strings contain commas, so rows are CSV-quoted
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["period", *wanted[1:]])

    def row(label: str, period_filter: set[str]) -> dict[str, int]:
        samples, rejected = _partition(*columns, wanted, period_filter)
        tilts = inference.refine_tilts(samples[0], samples[1:], args.alpha)
        writer.writerow([label, *(spec.format() for spec in tilts)])
        return rejected

    for period in periods:
        rejected = row(period, {period})
    if len(periods) > 1:
        rejected = row("pooled", set(periods))
    _report_rejections(rejected)   # the last row spans every selected period
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_threshold(args) -> int:
    thresholds = [_number("--thresholds", t) for t in _split_list(args.thresholds)]
    if not thresholds:
        raise ConfigError("--thresholds needs at least one value")
    _check_alpha(args)
    level = 1.0 - args.alpha
    if level == 1.0:
        raise ConfigError(f"--alpha {args.alpha!r} is too small: 1 - alpha rounds to 1")
    fitted, samples, _ = _fit_from_args(args)
    lines = ["method,T,prob,se,ci_low,ci_high,ci_low_clamped,ci_high_clamped"]
    for method, source in (("drm", fitted), ("empirical", samples[0])):
        for est in inference.threshold_probability(source, thresholds, level):
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
    sizes = tuple(_number("--sizes", s, int) for s in _split_list(args.sizes))
    g = _split_list(args.grid)
    if len(g) != 3:
        raise ConfigError("--grid needs M1,M2,J")
    grid = (_number("--grid", g[0]), _number("--grid", g[1]), _number("--grid", g[2], int))
    try:
        cfg = simulation.SimConfig(replications=args.reps, sizes=sizes, grid=grid,
                                   seed=args.seed)
    except ArityMismatch as e:
        raise ConfigError(str(e)) from None
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. Each subcommand name
    maps to the module's ``cmd_<name>``, looked up when ``main`` dispatches."""
    parser = _Parser(prog="drmfuse", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="pooled fit with estimates and standard errors")
    _add_data_flags(p, tilt=True)

    p = sub.add_parser("refine", help="per-period tilt selection table")
    _add_data_flags(p, tilt=False)

    p = sub.add_parser("threshold", help="threshold probabilities with CIs")
    _add_data_flags(p, tilt=True)
    p.add_argument("--thresholds", default="5,10,25,50,100,150,200",
                   help="comma-separated threshold list")

    p = sub.add_parser("gof", help="goodness-of-fit pairs (Ghat, Gtilde)")
    _add_data_flags(p, tilt=True)

    p = sub.add_parser("simulate", help="Monte Carlo estimator comparison")
    p.add_argument("--reps", type=int, default=300)
    p.add_argument("--sizes", default="1000,1000,1000")
    p.add_argument("--grid", default="0,10,1000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as e:
        print(f"drmfuse: config error: {e}", file=sys.stderr)
        return 4
    except InputError as e:
        print(f"drmfuse: input error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"drmfuse: numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
