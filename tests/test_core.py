import numpy as np
import pytest

from drmfuse import (
    ArityMismatch,
    Basis,
    DuplicateBasis,
    EmptySample,
    GLOBAL_TILT,
    NonPositiveValue,
    Sample,
    StepCDF,
    TiltSpec,
    validate,
)


def test_validate_rho_arithmetic():
    ref = Sample.reference("r", [1.0, 2.0, 3.0])
    nb = Sample.neighbor("n", [1.0, 4.0])
    data = validate([ref, nb], [TiltSpec.parse("x")])
    assert data.n == 5
    assert np.allclose(data.rho, [1.0, 2.0 / 3.0])


def test_validate_beaver_period_sizes():
    # unbalanced county sizes: reference 816, neighbors 471/12328/985/231
    sizes = [816, 471, 12328, 985, 231]
    rng = np.random.default_rng(1)
    samples = [Sample.reference("beaver", rng.lognormal(1, 1, sizes[0]))]
    samples += [Sample.neighbor(f"n{i}", rng.lognormal(1, 1, n)) for i, n in enumerate(sizes[1:])]
    data = validate(samples, [GLOBAL_TILT] * 4)
    assert np.allclose(data.rho, [1, 471 / 816, 12328 / 816, 985 / 816, 231 / 816])


def test_t_preserves_block_order():
    ref = Sample.reference("r", [3.0, 1.0, 2.0])
    nb = Sample.neighbor("n", [5.0, 4.0])
    data = validate([ref, nb], [TiltSpec.parse("logx")])
    assert np.array_equal(data.t, [3.0, 1.0, 2.0, 5.0, 4.0])


def test_rho_invariant_under_replication():
    ref = Sample.reference("r", [1.0, 2.0])
    nb = Sample.neighbor("n", [3.0, 4.0, 5.0])
    base = validate([ref, nb], [TiltSpec.parse("x")])
    ref3 = Sample.reference("r", np.tile(ref.values, 3))
    nb3 = Sample.neighbor("n", np.tile(nb.values, 3))
    tripled = validate([ref3, nb3], [TiltSpec.parse("x")])
    assert tripled.n == 3 * base.n
    assert np.allclose(tripled.rho, base.rho)


def test_ties_are_kept_as_distinct_entries():
    ref = Sample.reference("r", [2.0, 2.0, 2.0])
    nb = Sample.neighbor("n", [2.0, 2.0])
    data = validate([ref, nb], [TiltSpec.parse("x")])
    assert data.t.size == 5


def test_nonpositive_value_rejected():
    with pytest.raises(NonPositiveValue) as exc:
        Sample.reference("r", [1.0, 0.0, 2.0])
    assert exc.value.index == 1
    with pytest.raises(NonPositiveValue):
        Sample.neighbor("n", [-0.5])
    with pytest.raises(NonPositiveValue):
        Sample.neighbor("n", [1.0, np.nan])


def test_empty_sample_rejected():
    with pytest.raises(EmptySample):
        Sample.reference("r", [])


def test_duplicate_basis_rejected():
    with pytest.raises(DuplicateBasis):
        TiltSpec((Basis.LOG, Basis.LOG))


def test_arity_and_roles():
    ref = Sample.reference("r", [1.0])
    nb = Sample.neighbor("n", [1.0])
    with pytest.raises(ArityMismatch):
        validate([ref, nb], [])
    with pytest.raises(ArityMismatch):
        validate([nb, ref], [TiltSpec.parse("x")])
    with pytest.raises(ArityMismatch):
        validate([ref, ref], [TiltSpec.parse("x")])


def test_tiltspec_parse_format_roundtrip():
    for text in ("x", "logx", "log2x", "x,logx", "x,logx,log2x", "-"):
        spec = TiltSpec.parse(text)
        assert TiltSpec.parse(spec.format()) == spec
    assert TiltSpec.parse("-").r == 0
    assert TiltSpec.parse("x,logx,log2x") == GLOBAL_TILT
    with pytest.raises(Exception):
        TiltSpec.parse("x,bogus")


def test_stepcdf_merges_ties_and_is_right_continuous():
    cdf = StepCDF.from_weighted(np.array([2.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
    assert np.array_equal(cdf.points, [1.0, 2.0])
    assert np.allclose(cdf.cum, [0.5, 1.0])
    assert cdf(0.999) == 0.0
    assert cdf(1.0) == 0.5          # jump attained at the point
    assert cdf(1.5) == 0.5
    assert cdf(2.0) == 1.0
    assert cdf(100.0) == 1.0
    assert np.allclose(cdf(np.array([0.0, 1.0, 3.0])), [0.0, 0.5, 1.0])
    assert abs(cdf.total - 1.0) < 1e-12


def test_stepcdf_rejects_disorder():
    with pytest.raises(Exception):
        StepCDF(np.array([2.0, 1.0]), np.array([0.5, 1.0]))
    with pytest.raises(Exception):
        StepCDF(np.array([1.0, 2.0]), np.array([0.8, 0.5]))


def test_core_arrays_are_immutable():
    ref = Sample.reference("r", [1.0, 2.0])
    with pytest.raises(ValueError):
        ref.values[0] = 9.0
    data = validate([ref], [])
    with pytest.raises(ValueError):
        data.t[0] = 9.0


def test_public_names_resolve():
    import drmfuse
    missing = [name for name in drmfuse.__all__ if not hasattr(drmfuse, name)]
    assert missing == []
