import errno
import os
import signal
import threading

import numpy as np
import pytest
from scipy.stats import expon, gamma as gamma_dist, lognorm

from drmfuse import (
    ArityMismatch,
    NoConvergence,
    NonPositiveValue,
    Sample,
    SimConfig,
    drm_cdf,
    empirical_cdf,
    exp2_cdf,
    fit,
    generate,
    miae_mise,
    run_comparison,
    validate,
)
from drmfuse.simulation import ESTIMATORS, REFINED_TRUTH, ExcessiveFailures
from drmfuse import _kernels, simulation
from conftest import replicate_errors


def _pin_workers(monkeypatch, workers):
    monkeypatch.setattr(simulation, "_workers", lambda replications: workers)


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


def test_refined_truth_is_the_true_log_density_ratio():
    # eta = X B at the true theta, in the refined layout, against the log
    # density ratios of the generator's distributions
    data = validate(list(generate(8, (500, 500, 500))), list(simulation.REFINED_TILTS))
    x = data.t
    log_f0 = expon.logpdf(x, scale=0.5)
    want = np.column_stack([gamma_dist.logpdf(x, a=2.0, scale=0.5) - log_f0,
                            lognorm.logpdf(x, s=1.0, scale=np.e) - log_f0])
    got = _kernels.eta_matrix(REFINED_TRUTH, data)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12
    assert not REFINED_TRUTH.flags.writeable


def test_exp2_cdf():
    assert exp2_cdf(0.0) == 0.0
    assert exp2_cdf(0.5) == pytest.approx(1 - np.exp(-1.0), rel=1e-15)
    assert np.allclose(exp2_cdf(np.array([-1.0, 1e9])), [0.0, 1.0])


def test_miae_mise_zero_when_exact():
    grid = (0.0, 10.0, 1000)
    (miae,), (mise,) = miae_mise(lambda x: exp2_cdf(x)[:, None], exp2_cdf, grid)
    assert miae == 0.0 and mise == 0.0


def test_miae_mise_constant_offset():
    grid = (0.0, 10.0, 1000)
    (miae,), (mise,) = miae_mise(lambda x: exp2_cdf(x)[:, None] + 0.01, exp2_cdf, grid)
    assert miae == pytest.approx(0.1, rel=1e-12)
    assert mise == pytest.approx(0.001, rel=1e-12)


def test_miae_mise_accepts_an_empirical_cdf():
    sample = Sample.reference("r", [1.0, 2.0])
    (miae,), (mise,) = miae_mise(lambda x: empirical_cdf(sample, x)[:, None],
                                 lambda x: np.clip(x / 2.0, 0, 1), (0.0, 2.0, 4))
    # errors -1/4, 0, -1/4, 0 at x = 1/2, 1, 3/2, 2, each weighted by delta = 1/2
    assert (miae, mise) == (0.25, 0.0625)


def test_empirical_miae_magnitude():
    # Ghat from n0 = 1000 Exp(2) draws: MIAE about 1.9e-2 on average
    grid = (0.0, 10.0, 1000)
    vals = []
    for i in range(60):
        rng = np.random.default_rng(np.random.SeedSequence(4096, spawn_key=(i,)))
        sample = Sample.reference("x", rng.exponential(0.5, 1000))
        vals.append(miae_mise(lambda x: empirical_cdf(sample, x)[:, None], exp2_cdf, grid)[0][0])
    assert np.mean(vals) == pytest.approx(1.910e-2, rel=0.15)


def test_simconfig_validation():
    with pytest.raises(ArityMismatch):
        SimConfig(grid=(5.0, 1.0, 100))
    # an infinite bound would give an infinite or NaN error integral
    for grid in ((0.0, np.inf, 10), (-np.inf, 10.0, 10), (-1e308, 1e308, 10)):
        with pytest.raises(ArityMismatch, match="grid bounds .* must be finite"):
            SimConfig(replications=2, sizes=(100, 100, 100), grid=grid)
        with pytest.raises(ArityMismatch, match="invalid grid"):
            miae_mise(lambda x: exp2_cdf(x)[:, None], exp2_cdf, grid)
    for grid in ((0.0, 10.0), (0.0, 10.0, 100, 1)):
        with pytest.raises(ArityMismatch):
            SimConfig(grid=grid)
    with pytest.raises(ArityMismatch):
        SimConfig(replications=0)
    for sizes in ((1000, 1000), (1000, 1000, 1000, 1000)):
        with pytest.raises(ArityMismatch):
            SimConfig(sizes=sizes)
    # counts must be integers: a J of 2.5 would integrate beyond M2
    for kwargs in ({"grid": (0, 10, 2.5)}, {"replications": 2.5},
                   {"sizes": (50.5, 50, 50)}, {"sizes": (50, 50, "50")}, {"seed": 1.5}):
        with pytest.raises(ArityMismatch, match="integer"):
            SimConfig(**kwargs)
    with pytest.raises(ArityMismatch, match="seed"):   # SeedSequence takes no negative seed
        SimConfig(seed=-1)
    SimConfig(replications=np.int64(2), sizes=(np.int32(50),) * 3, grid=(0.0, 10.0, np.int64(8)),
              seed=np.uint32(3))


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
    r1, r2 = replicate_errors(cfg), replicate_errors(cfg)
    for name, row in zip(ESTIMATORS, t1.rows):
        assert np.array_equal(r1[name], r2[name])
        assert (row.miae, row.mise) == tuple(r1[name].mean(axis=0)), name
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


def test_uniform_fit_starts_at_the_refined_mle(monkeypatch):
    # each replicate's refined fit is started at the true theta and its
    # uniform fit at the refined MLE of the same samples, each coordinate at
    # its (neighbor, column) in the uniform layout and 0 elsewhere, and the
    # table matches cold starts of both fits. One worker, so that every fit
    # is called in this process and seen by the spy
    _pin_workers(monkeypatch, 1)
    cfg = SimConfig(replications=6, sizes=(300, 300, 300), seed=11)
    real_fit = simulation.likelihood.fit
    warm_errors = replicate_errors(cfg)
    calls = []

    def spy(data, start=None):
        model = real_fit(data, start=start)
        calls.append((data, start, model))
        return model

    monkeypatch.setattr(simulation.likelihood, "fit", spy)
    warm = run_comparison(cfg)
    assert len(calls) == 2 * cfg.replications
    warm_iterations = cold_iterations = refined_iterations = cold_refined_iterations = 0
    for (refined_data, truth, refined), (uniform_data, start, uniform) in zip(
            calls[::2], calls[1::2]):
        assert truth is REFINED_TRUTH
        by_coordinate = dict(zip(zip(uniform_data.nbr.tolist(), uniform_data.col.tolist()),
                                 start.tolist()))
        for k, c, value in zip(refined_data.nbr.tolist(), refined_data.col.tolist(),
                               refined.theta.tolist()):
            assert by_coordinate.pop((k, c)) == value
        assert set(by_coordinate.values()) == {0.0}
        assert [spec for _, spec in refined_data.neighbors] == list(simulation.REFINED_TILTS)
        assert [spec for _, spec in uniform_data.neighbors] == list(simulation.UNIFORM_TILTS)
        warm_iterations += uniform.iterations
        cold_iterations += real_fit(uniform_data).iterations
        refined_iterations += refined.iterations
        cold_refined_iterations += real_fit(refined_data).iterations
    assert warm_iterations < cold_iterations
    assert refined_iterations < cold_refined_iterations

    monkeypatch.setattr(simulation.likelihood, "fit", lambda data, start=None: real_fit(data))
    cold = run_comparison(cfg)
    assert (warm.replications_used, warm.failures) == (cold.replications_used, cold.failures)
    cold_errors = replicate_errors(cfg)
    for name in ESTIMATORS:
        assert np.allclose(warm_errors[name], cold_errors[name], rtol=1e-10, atol=0.0), name
    for row_w, row_c in zip(warm.rows, cold.rows):
        assert row_w.estimator == row_c.estimator
        for metric in ("miae", "miae_se", "mise", "mise_se"):
            assert getattr(row_w, metric) == pytest.approx(getattr(row_c, metric), rel=1e-10)


def test_replicate_bins_the_fused_points_once(monkeypatch):
    # the three CDFs of a replicate come from one search between the fused
    # points and the grid, not one per estimator (in one worker, so that the
    # spy sees every replicate)
    _pin_workers(monkeypatch, 1)
    cfg = SimConfig(replications=4, sizes=(200, 200, 200), seed=5)
    calls = []
    real = np.searchsorted

    def spy(a, v, *args, **kwargs):
        calls.append({np.size(a), np.size(v)})
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    table = run_comparison(cfg)
    assert table.failures == 0
    assert calls == [{sum(cfg.sizes), cfg.grid[2]}] * cfg.replications


def test_replicate_columns_are_the_three_cdfs_bit_for_bit():
    # one binning gives drm_cdf of each fit and the reference's empirical
    # CDF exactly, so each estimator's errors are those of its own CDF
    samples = generate(12, (400, 300, 350))
    grid = (0.0, 10.0, 1000)
    refined_data = validate(list(samples), list(simulation.REFINED_TILTS))
    refined = fit(refined_data, start=REFINED_TRUTH)
    uniform_data = validate(list(samples), list(simulation.UNIFORM_TILTS))
    start = np.zeros(uniform_data.m + uniform_data.r)
    start[[uniform_data.pairs.index(p) for p in refined_data.pairs]] = refined.theta
    uniform = fit(uniform_data, start=start)
    cdfs = {"uniform": lambda x: drm_cdf(uniform, x),
            "refined": lambda x: drm_cdf(refined, x),
            "empirical": lambda x: empirical_cdf(samples[0], x)}
    x = np.concatenate([np.linspace(-1.0, 12.0, 300), samples[0].values[:50], [np.inf]])
    columns = simulation._replicate_cdfs(uniform, refined, x)
    for k, name in enumerate(ESTIMATORS):
        assert columns[:, k].tobytes() == cdfs[name](x).tobytes(), name
    errors = simulation._replicate_errors(samples, grid)
    assert list(errors) == list(ESTIMATORS)
    for name in ESTIMATORS:
        (iae,), (ise,) = miae_mise(lambda x: cdfs[name](x)[:, None], exp2_cdf, grid)
        assert errors[name] == (iae, ise), name


def test_run_comparison_counts_and_aborts_on_failures(monkeypatch):
    calls = {"k": 0}

    def exploding_fit(data, start=None):
        calls["k"] += 1
        raise NoConvergence(5, 1.0)

    monkeypatch.setattr(simulation.likelihood, "fit", exploding_fit)
    with pytest.raises(ExcessiveFailures):
        run_comparison(SimConfig(replications=10, sizes=(50, 50, 50), seed=0))


def _failing_replicates(monkeypatch, cfg, failing, raising=None):
    # stand-in replicate errors: replicate i, known by its samples, fails when
    # i is in ``failing``, raises ``raising[i]`` when there is one, and
    # otherwise gives every estimator (i, i^2). A replicate is known by its
    # samples because a worker process's call count would restart at 0. The
    # list returned collects the replicates called in this process
    index = {generate(np.random.SeedSequence(cfg.seed, spawn_key=(i,)), cfg.sizes)[0]
             .values.tobytes(): i for i in range(cfg.replications)}
    raising = raising or {}
    called = []

    def replicate(samples, grid):
        i = index[samples[0].values.tobytes()]
        called.append(i)
        if i in failing:
            raise NoConvergence(5, 1.0)
        if i in raising:
            raise raising[i]
        return {name: (float(i), float(i * i)) for name in ESTIMATORS}

    monkeypatch.setattr(simulation, "_replicate_errors", replicate)
    return called


TEN = SimConfig(replications=10, sizes=(50, 50, 50), seed=0)


def test_run_comparison_excludes_one_failed_replicate_of_ten(monkeypatch):
    _failing_replicates(monkeypatch, TEN, {3})
    table = run_comparison(TEN)
    assert (table.failures, table.replications_used) == (1, 9)
    errors = np.array([(i, i * i) for i in range(10) if i != 3], dtype=float)
    se = errors.std(axis=0, ddof=1) / np.sqrt(9)
    for row in table.rows:
        assert (row.miae, row.mise) == (errors[:, 0].mean(), errors[:, 1].mean())
        assert (row.miae_se, row.mise_se) == (se[0], se[1])


def test_run_comparison_aborts_on_two_failed_replicates_of_ten(monkeypatch):
    # more than 10% of the replicates fail
    _failing_replicates(monkeypatch, TEN, {2, 7})
    with pytest.raises(ExcessiveFailures) as exc:
        run_comparison(TEN)
    assert (exc.value.failures, exc.value.total) == (2, 10)


@pytest.mark.parametrize("workers", [1, 2])
def test_failures_in_two_chunks_abort_at_any_worker_count(monkeypatch, workers):
    # with two workers, replicate 7 fails in the child's chunk
    _pin_workers(monkeypatch, workers)
    _failing_replicates(monkeypatch, TEN, {2, 7})
    with pytest.raises(ExcessiveFailures) as exc:
        run_comparison(TEN)
    assert (exc.value.failures, exc.value.total) == (2, 10)


def test_failure_in_a_worker_is_excluded_as_in_one_process(monkeypatch):
    tables = {}
    for workers in (1, 2):
        _pin_workers(monkeypatch, workers)
        called = _failing_replicates(monkeypatch, TEN, {8})
        tables[workers] = run_comparison(TEN)
        # with two workers, replicates 5-9 ran in the child
        assert called == list(range(10 if workers == 1 else 5))
    for table in tables.values():
        assert (table.failures, table.replications_used) == (1, 9)
    assert tables[1].rows == tables[2].rows


@pytest.mark.parametrize("workers", [2, 3])
def test_tables_do_not_depend_on_the_worker_count(monkeypatch, workers):
    # 7 replicates in chunks of unequal sizes
    cfg = SimConfig(replications=7, sizes=(200, 150, 180), seed=23)
    _pin_workers(monkeypatch, 1)
    serial = run_comparison(cfg)
    _pin_workers(monkeypatch, workers)
    table = run_comparison(cfg)
    assert table.rows == serial.rows
    assert table.to_delimited() == serial.to_delimited()
    assert table.to_text() == serial.to_text()


def _labelled():
    # a library error whose __init__ takes other parameters than its message,
    # with a label attached
    error = NonPositiveValue("r", 4, -1.0)
    error.label = "n1"
    return error


def _local():
    class Local(Exception):   # a class defined in a function does not pickle
        pass

    return Local("not portable")


@pytest.mark.parametrize("make_error", [lambda: ValueError("boom"), _labelled, _local],
                         ids=["ValueError", "labelled", "unpicklable"])
@pytest.mark.parametrize("workers", [2, 3])
def test_worker_exception_is_raised_as_in_one_process(monkeypatch, workers, make_error):
    # replicate 8 raises in the last child's chunk; the caller runs that chunk
    # again and raises the very object one process raises, not a copy
    error = make_error()
    raised = {}
    for count in (1, workers):
        _pin_workers(monkeypatch, count)
        called = _failing_replicates(monkeypatch, TEN, set(), {8: error})
        with pytest.raises(type(error)) as exc:
            run_comparison(TEN)
        raised[count] = exc.value
        assert called[-1] == 8   # the chunk holding replicate 8 ran here
    assert raised[workers] is raised[1] is error
    assert error.__cause__ is None


@pytest.mark.parametrize("death", ["exit", "kill"])
@pytest.mark.parametrize("workers", [2, 3])
def test_worker_that_dies_gives_the_serial_table(monkeypatch, workers, death):
    # the child running replicate 9 dies before it sends anything; the caller
    # runs its chunk again and the table is the one process's
    _pin_workers(monkeypatch, 1)
    _failing_replicates(monkeypatch, TEN, {3})
    serial = run_comparison(TEN)
    _pin_workers(monkeypatch, workers)
    called = _failing_replicates(monkeypatch, TEN, {3})
    keyed, parent = simulation._replicate_errors, os.getpid()

    def dying(samples, grid):
        errors = keyed(samples, grid)
        if called[-1] == 9 and os.getpid() != parent:
            if death == "exit":
                os._exit(7)
            os.kill(os.getpid(), signal.SIGKILL)
        return errors

    monkeypatch.setattr(simulation, "_replicate_errors", dying)
    table = run_comparison(TEN)
    assert called[-1] == 9   # the dead child's chunk ran here
    assert (table.failures, table.replications_used) == (1, 9)
    assert table.to_delimited() == serial.to_delimited()


def test_failed_fork_leaves_no_descriptor(monkeypatch):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open descriptors")
    _pin_workers(monkeypatch, 3)
    _failing_replicates(monkeypatch, TEN, set())
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError) as exc:
        run_comparison(TEN)
    assert exc.value.errno == errno.EAGAIN
    assert len(forks) == 2
    assert len(os.listdir("/proc/self/fd")) == before


def test_worker_results_larger_than_a_pipe_buffer(monkeypatch):
    # about 75 bytes per replicate: the child's 3000 exceed a 64 KiB pipe
    # buffer, so it finishes only if the parent reads while it writes
    cfg = SimConfig(replications=6000, sizes=(5, 5, 5), seed=1)
    _pin_workers(monkeypatch, 2)
    _failing_replicates(monkeypatch, cfg, set())
    table = run_comparison(cfg)
    assert table.replications_used == 6000
    assert table.rows[0].miae == np.arange(6000.0).mean()


def test_workers_one_per_cpu_of_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert [simulation._workers(r) for r in (1, 2, 3, 300)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert simulation._workers(300) == 4
    monkeypatch.delattr(os, "fork")
    assert simulation._workers(300) == 1


def test_no_fork_while_another_thread_runs(monkeypatch):
    cfg = SimConfig(replications=4, sizes=(150, 150, 150), seed=4)
    _pin_workers(monkeypatch, 1)
    serial = run_comparison(cfg)
    monkeypatch.undo()
    # three CPUs, so that only the thread can keep the run in one process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert simulation._workers(cfg.replications) == 3

    def no_fork():
        pytest.fail("run_comparison forked while another thread was alive")

    monkeypatch.setattr(os, "fork", no_fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        table = run_comparison(cfg)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert table.to_delimited() == serial.to_delimited()


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
