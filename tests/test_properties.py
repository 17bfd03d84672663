"""Invariances the model implies: the fused CDF and its intervals do not
depend on the order of points within a sample or on the order of neighbors.
And the block CSV reader agrees with the row-by-row oracle on generated files."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import ingest_oracle
from drmfuse import Sample, TiltSpec, cli, fit, threshold_probability, validate
from drmfuse.core import InputError

TILTS = (TiltSpec.parse("logx"), TiltSpec.parse("x,log2x"), TiltSpec(()))


def _estimates(ref, neighbors, tilts, T):
    model = fit(validate([ref, *neighbors], list(tilts)))
    est = threshold_probability(model, T)
    return np.array([[e.prob, e.se] for e in est])


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(3)))
def test_threshold_invariant_to_point_and_neighbor_order(seed, order):
    rng = np.random.default_rng(seed)
    ref = Sample.reference("exp", rng.exponential(0.5, 100))
    neighbors = [
        Sample.neighbor("gamma", rng.gamma(2.0, 0.5, 90)),
        Sample.neighbor("lognormal", rng.lognormal(0.0, 0.6, 80)),
        Sample.neighbor("exp2", rng.exponential(0.5, 70)),
    ]
    T = np.quantile(ref.values, [0.1, 0.25, 0.5, 0.75, 0.9])
    base = _estimates(ref, neighbors, TILTS, T)

    shuffled = [Sample(s.label, rng.permutation(s.values), s.role) for s in (ref, *neighbors)]
    permuted = _estimates(shuffled[0], shuffled[1:], TILTS, T)
    reordered = _estimates(ref, [neighbors[k] for k in order], [TILTS[k] for k in order], T)
    np.testing.assert_allclose(permuted, base, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(reordered, base, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# CSV ingestion: the block reader against the row-by-row oracle
# ---------------------------------------------------------------------------

WANTED = ["A", "B", "C,1"]          # "C,1" must be quoted in the file
PERIODS = ["p1", "p2", "p3"]
_label = st.sampled_from(["A", "B", "C,1", "Z"])        # Z is never requested
_pad = st.sampled_from(["", " ", "  \t"])
_number = st.one_of(
    st.floats(1e-3, 1e3).map(repr),
    st.sampled_from(["0", "-0.0", "-1.5", "1e-400", "12", "2.50"]),
)


@st.composite
def _field(draw, text):
    """``text`` padded, and quoted when it holds a comma or when drawn so."""
    text = draw(_pad) + text + draw(_pad)
    return f'"{text}"' if "," in text or draw(st.booleans()) else text


@st.composite
def _data_line(draw):
    return ",".join([draw(_field(draw(_label))), draw(_field(draw(st.sampled_from(PERIODS)))),
                     draw(_field(draw(_number)))])


_blank_line = st.sampled_from(["", " ", "\t  "])
_fault_line = st.one_of(
    st.sampled_from(["A,p1", "A,p1,2.0,3", "A", "A,p1,abc", "A,p1,", "Z,p2,x1"]),
    st.builds(lambda region, raw: f"{region},p1,{raw}",
              st.sampled_from(["A", "Z"]), st.sampled_from(["nan", "inf", "-inf", " NaN "])),
)


@st.composite
def _csv_text(draw):
    size = draw(st.sampled_from([0, 3, 12, 30, 60]))
    lines = draw(st.lists(st.one_of(_data_line(), _data_line(), _data_line(), _blank_line),
                          min_size=size, max_size=size))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):      # up to two faults
        lines.insert(draw(st.integers(0, len(lines))), draw(_fault_line))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(["region,period,value", *lines]) + newline


def _outcome(read):
    try:
        res = read()
    except InputError as e:
        return type(e), getattr(e, "line_no", None), str(e)
    return (
        [(s.label, s.values.dtype, s.values.tobytes()) for s in res.samples()],
        res.rejected,
        res.periods_seen,
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_csv_text(), n_wanted=st.integers(1, 3),
       period_filter=st.one_of(st.none(), st.sets(st.sampled_from([*PERIODS, "p9"]))),
       block_rows=st.sampled_from([1, 2, 3, 7, 1024]))
def test_block_reader_matches_row_by_row_oracle(text, n_wanted, period_filter, block_rows):
    wanted = WANTED[:n_wanted]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "rows.csv")
        Path(path).write_text(text, encoding="utf-8", newline="")
        want = _outcome(lambda: ingest_oracle.ingest(path, wanted, period_filter))
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            got = _outcome(lambda: cli.ingest(path, wanted[0], wanted[1:], period_filter))
    assert got == want
