import os

import numpy as np
import pytest

from drmfuse import Sample, TiltSpec, cli, generate, simulation, validate


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which this process still has a child, running or
    not reaped: the Monte Carlo workers must all be waited for."""
    yield
    if not hasattr(os, "WNOHANG"):   # Windows: no fork, no workers
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:   # no children at all
        return
    pytest.fail(f"a child process was left behind (waitpid gave pid {pid}, status {status})")


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """Fail a test after which this process holds more open file descriptors
    than before it, such as a Monte Carlo worker's pipe end. Not checked
    where ``/proc/self/fd`` is absent."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = len(os.listdir("/proc/self/fd"))
    yield
    after = len(os.listdir("/proc/self/fd"))
    if after > before:
        pytest.fail(f"{after - before} file descriptor(s) left open")


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
    the file's period labels. A ``period_filter`` of None keeps every period."""
    regions, periods, values = cli._read_rows(path)
    period_filter = periods[0] if period_filter is None else period_filter
    return (*cli._partition(regions, periods, values, wanted, period_filter), periods[0])


def replicate_errors(cfg):
    """Each estimator's (IAE, ISE) of every replicate of ``cfg``, one (R, 2)
    array per estimator, from ``simulation._replicate_errors`` on the samples
    ``run_comparison`` draws for each replicate."""
    per = [simulation._replicate_errors(
               generate(np.random.SeedSequence(cfg.seed, spawn_key=(i,)), cfg.sizes), cfg.grid)
           for i in range(cfg.replications)]
    return {name: np.array([errors[name] for errors in per]) for name in simulation.ESTIMATORS}
