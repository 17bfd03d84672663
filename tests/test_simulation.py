import numpy as np
import pytest
from scipy.stats import expon, gamma as gamma_dist, lognorm

from drmfuse import (
    ArityMismatch,
    NoConvergence,
    SimConfig,
    StepCDF,
    exp2_cdf,
    generate,
    miae_mise,
    run_comparison,
)
from drmfuse.simulation import ESTIMATORS, ExcessiveFailures
from drmfuse import simulation


def test_generate_parameterizations():
    ref, g, ln = generate(31337, (100_000, 100_000, 100_000))
    # Exp(rate 2), Gamma(shape 2, rate 2), Lognormal(mu 1, sigma 1) means
    assert ref.values.mean() == pytest.approx(0.5, rel=0.02)
    assert g.values.mean() == pytest.approx(1.0, rel=0.02)
    assert ln.values.mean() == pytest.approx(np.exp(1.5), rel=0.05)
    assert ref.role.value == "reference"
    assert g.role.value == "neighbor"


def test_density_ratio_identities_on_grid():
    # the parameterizations are pinned by the exact density-ratio identities
    x = np.linspace(0.05, 8.0, 200)
    f0 = expon.pdf(x, scale=0.5)
    f1 = gamma_dist.pdf(x, a=2.0, scale=0.5)
    f2 = lognorm.pdf(x, s=1.0, scale=np.exp(1.0))
    ratio1 = np.exp(np.log(2.0) + np.log(x))
    assert np.allclose(f1 / f0, ratio1, rtol=1e-12)
    ratio2 = np.exp(-0.5 - np.log(2.0 * np.sqrt(2.0 * np.pi)) + 2.0 * x - 0.5 * np.log(x) ** 2)
    assert np.allclose(f2 / f0, ratio2, rtol=1e-12)


def test_exp2_cdf():
    assert exp2_cdf(0.0) == 0.0
    assert exp2_cdf(0.5) == pytest.approx(1 - np.exp(-1.0), rel=1e-15)
    assert np.allclose(exp2_cdf(np.array([-1.0, 1e9])), [0.0, 1.0])


def test_miae_mise_zero_when_exact():
    grid = (0.0, 10.0, 1000)
    miae, mise = miae_mise(exp2_cdf, exp2_cdf, grid)
    assert miae == 0.0 and mise == 0.0


def test_miae_mise_constant_offset():
    grid = (0.0, 10.0, 1000)
    miae, mise = miae_mise(lambda x: exp2_cdf(x) + 0.01, exp2_cdf, grid)
    assert miae == pytest.approx(0.1, rel=1e-12)
    assert mise == pytest.approx(0.001, rel=1e-12)


def test_miae_mise_accepts_stepcdf():
    cdf = StepCDF.from_weighted(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    miae, mise = miae_mise(cdf, lambda x: np.clip(x / 2.0, 0, 1), (0.0, 2.0, 4))
    assert np.isfinite(miae) and np.isfinite(mise)


def test_empirical_miae_magnitude():
    # Ghat from n0 = 1000 Exp(2) draws: MIAE about 1.9e-2 on average
    from drmfuse import Sample, empirical_cdf
    grid = (0.0, 10.0, 1000)
    vals = []
    for i in range(60):
        rng = np.random.default_rng(np.random.SeedSequence(4096, spawn_key=(i,)))
        sample = Sample.reference("x", rng.exponential(0.5, 1000))
        vals.append(miae_mise(empirical_cdf(sample), exp2_cdf, grid)[0])
    assert np.mean(vals) == pytest.approx(1.910e-2, rel=0.15)


def test_simconfig_validation():
    with pytest.raises(ArityMismatch):
        SimConfig(grid=(5.0, 1.0, 100))
    with pytest.raises(ArityMismatch):
        SimConfig(replications=0)
    assert SimConfig().delta == pytest.approx(0.01)


def test_run_comparison_smoke_single_replicate():
    table = run_comparison(SimConfig(replications=1, sizes=(150, 150, 150), seed=3))
    assert len(table.rows) == 3
    for row in table.rows:
        assert np.isfinite(row.miae) and row.miae > 0
        assert np.isfinite(row.mise) and row.mise > 0
    assert table.failures == 0
    assert table.replications_used == 1


def test_run_comparison_bit_identical_for_same_seed():
    cfg = SimConfig(replications=12, sizes=(250, 250, 250), seed=42)
    t1 = run_comparison(cfg)
    t2 = run_comparison(cfg)
    assert t1.rows == t2.rows
    for name in ESTIMATORS:
        assert np.array_equal(t1.per_replicate[name], t2.per_replicate[name])
    assert t1.to_delimited() == t2.to_delimited()


def test_run_comparison_different_seed_differs():
    cfg1 = SimConfig(replications=5, sizes=(200, 200, 200), seed=1)
    cfg2 = SimConfig(replications=5, sizes=(200, 200, 200), seed=2)
    assert run_comparison(cfg1).rows != run_comparison(cfg2).rows


def test_mise_decreases_when_n_doubles():
    small = run_comparison(SimConfig(replications=40, sizes=(400, 400, 400), seed=7))
    big = run_comparison(SimConfig(replications=40, sizes=(800, 800, 800), seed=7))
    for row_s, row_b in zip(small.rows, big.rows):
        assert row_b.mise < row_s.mise


def test_run_comparison_counts_and_aborts_on_failures(monkeypatch):
    calls = {"k": 0}

    def exploding_fit(data, opts=None):
        calls["k"] += 1
        raise NoConvergence(5, 1.0)

    monkeypatch.setattr(simulation.likelihood, "fit", exploding_fit)
    with pytest.raises(ExcessiveFailures):
        run_comparison(SimConfig(replications=10, sizes=(50, 50, 50), seed=0))


def test_table_text_and_delimited_shapes():
    table = run_comparison(SimConfig(replications=2, sizes=(120, 120, 120), seed=9))
    text = table.to_text()
    assert "estimator" in text and "MIAE" in text
    rows = table.to_delimited().splitlines()
    assert rows[0] == "estimator,metric,value,mc_se,I,n"
    assert len(rows) == 1 + 2 * 3
    # machine-readable values parse back
    est, metric, value, se, i_used, n = rows[1].split(",")
    assert est == "uniform" and metric == "miae"
    assert float(value) > 0 and int(i_used) == 2 and int(n) == 120
