import numpy as np
import pytest

from drmfuse import Sample, TiltSpec, cli, validate


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_fused(rng, sizes=(120, 100, 80), tilts=("x,logx,log2x", "x,log2x")):
    """Well-conditioned three-sample fixture on the synthetic truth."""
    ref = Sample.reference("exp", rng.exponential(0.5, sizes[0]))
    g = Sample.neighbor("gamma", rng.gamma(2.0, 0.5, sizes[1]))
    ln = Sample.neighbor("lognormal", rng.lognormal(1.0, 1.0, sizes[2]))
    return validate([ref, g, ln], [TiltSpec.parse(t) for t in tilts])


def make_pair(rng, n0=200, n1=180, tilt="x", neighbor="gamma"):
    ref = Sample.reference("exp", rng.exponential(0.5, n0))
    if neighbor == "gamma":
        nb = Sample.neighbor("gamma", rng.gamma(2.0, 0.5, n1))
    else:
        nb = Sample.neighbor("exp2", rng.exponential(0.5, n1))
    return validate([ref, nb], [TiltSpec.parse(tilt)])


def cli_ingest(path, wanted, period_filter):
    """The subcommands' read path, ``cli._read_rows`` then ``cli._partition``:
    the samples (reference first), each region's count of dropped rows, and
    the file's period labels."""
    regions, periods, values = cli._read_rows(path)
    return (*cli._partition(regions, periods, values, wanted, period_filter), periods[0])
