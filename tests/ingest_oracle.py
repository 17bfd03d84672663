"""Independent oracle for CSV ingestion: the row-by-row reader.

The package reads its CSV in blocks of rows, turning each block into integer
region and period codes and a float column, and partitions the regions with
boolean masks. This module keeps the plain route: a generator that checks
and yields one ``(region, period, value)`` row at a time, and a partition
that appends each usable value to its region's list. Tests compare the two
for bit-identical samples, equal ``rejected`` counts and ``periods_seen``,
or the same exception class, ``line_no`` and message.
"""

import csv
import math

import numpy as np

from drmfuse.cli import EmptyAfterFilter, IngestResult, ParseError, UnknownRegion
from drmfuse.core import Sample


def read_rows(path: str):
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


def partition(rows, wanted: list[str], period_filter: set[str] | None) -> IngestResult:
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


def ingest(path: str, wanted: list[str], period_filter: set[str] | None) -> IngestResult:
    return partition(read_rows(path), wanted, period_filter)
