import pickle

import numpy as np
import pytest

from drmfuse import (
    ArityMismatch,
    Basis,
    DrmError,
    DuplicateBasis,
    EmptySample,
    GLOBAL_TILT,
    InputError,
    NoConvergence,
    NonFinite,
    NonPositiveValue,
    Sample,
    TiltSpec,
    validate,
)
from drmfuse import cli, core, simulation
from drmfuse.core import retilt


def test_validate_rho_arithmetic():
    ref = Sample.reference("r", [1.0, 2.0, 3.0])
    nb = Sample.neighbor("n", [1.0, 4.0])
    data = validate([ref, nb], [TiltSpec.parse("x")])
    assert data.n == 5 and data.n0 == 3
    assert type(data.n) is int and type(data.n0) is int
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
    with pytest.raises(InputError, match="values must be one-dimensional"):
        Sample.reference("x", [[1.0, 2.0]])


def test_duplicate_basis_rejected():
    with pytest.raises(DuplicateBasis):
        TiltSpec((Basis.LOG, Basis.LOG))
    with pytest.raises(InputError, match="is not a Basis"):
        TiltSpec(("x",))


def test_arity_and_roles():
    ref = Sample.reference("r", [1.0])
    nb = Sample.neighbor("n", [1.0])
    with pytest.raises(ArityMismatch):
        validate([ref, nb], [])
    with pytest.raises(ArityMismatch, match="need at least a reference sample"):
        validate([], [])
    with pytest.raises(ArityMismatch):
        validate([nb, ref], [TiltSpec.parse("x")])
    with pytest.raises(ArityMismatch):
        validate([ref, ref], [TiltSpec.parse("x")])
    # arguments of the wrong type are input errors that name their position
    for tilts in (["x"], [None]):
        with pytest.raises(InputError, match="tilt at position 0 is a .*, not a TiltSpec"):
            validate([ref, nb], tilts)
        with pytest.raises(InputError, match="tilt at position 0 is a .*, not a TiltSpec"):
            retilt(validate([ref, nb], [GLOBAL_TILT]), tilts)
    with pytest.raises(InputError, match="sample at position 1 is a list, not a Sample"):
        validate([ref, [1.0, 2.0]], [GLOBAL_TILT])
    with pytest.raises(InputError, match="sample at position 0 is a NoneType, not a Sample"):
        validate([None, nb], [GLOBAL_TILT])


def test_retilt_lays_out_other_tilts_over_the_same_fused_samples():
    rng = np.random.default_rng(4)
    samples = [Sample.reference("r", rng.exponential(1.0, 40)),
               Sample.neighbor("a", rng.gamma(2.0, 0.5, 30)),
               Sample.neighbor("b", rng.lognormal(0.0, 1.0, 20))]
    first = [TiltSpec.parse("logx"), TiltSpec.parse("x,log2x")]
    for tilts in ([GLOBAL_TILT, GLOBAL_TILT], [TiltSpec(()), TiltSpec.parse("log2x,x")]):
        fresh, moved = validate(samples, tilts), retilt(validate(samples, first), tilts)
        assert moved.neighbors == fresh.neighbors and moved.reference is fresh.reference
        for name in ("t", "rho", "X", "sums", "nbr", "col", "same", "obs", "free"):
            assert getattr(moved, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert (moved.pairs, moved.n0, moved.n) == (fresh.pairs, fresh.n0, fresh.n)
    # the layout as Python ints, and which coordinates share a neighbor
    data = validate(samples, [TiltSpec.parse("logx"), TiltSpec.parse("x,log2x")])
    assert data.pairs == ((0, 0), (1, 0), (0, 2), (1, 1), (1, 3))
    assert all(type(i) is int for pair in data.pairs for i in pair)
    assert data.same.tolist() == [[a == b for b in (0, 1, 0, 1, 1)] for a in (0, 1, 0, 1, 1)]
    # the sums are X's column sums over each neighbor's block
    assert np.allclose(data.sums, [data.X[40:70].sum(axis=0), data.X[70:].sum(axis=0)],
                       rtol=1e-15, atol=0.0)
    with pytest.raises(ArityMismatch):
        retilt(data, [GLOBAL_TILT])


def test_tiltspec_parse_format_roundtrip():
    for text in ("x", "logx", "log2x", "x,logx", "x,logx,log2x", "-"):
        spec = TiltSpec.parse(text)
        assert TiltSpec.parse(spec.format()) == spec
    assert TiltSpec.parse("-").r == 0
    assert TiltSpec.parse("x,logx,log2x") == GLOBAL_TILT
    with pytest.raises(Exception):
        TiltSpec.parse("x,bogus")


def test_core_arrays_are_immutable():
    ref = Sample.reference("r", [1.0, 2.0])
    with pytest.raises(ValueError):
        ref.values[0] = 9.0
    data = validate([ref], [])
    with pytest.raises(ValueError):
        data.t[0] = 9.0


def test_sample_copies_the_callers_array():
    a = np.array([1.0, 2.0, 3.0])
    s = Sample.reference("r", a)
    assert a.flags.writeable and not np.shares_memory(a, s.values)
    a[0] = 5.0
    assert s.values.tolist() == [1.0, 2.0, 3.0]


def test_public_names_resolve():
    import drmfuse
    missing = [name for name in drmfuse.__all__ if not hasattr(drmfuse, name)]
    assert missing == []


def test_all_lists_every_public_name():
    # the export list and the package's imports cannot drift apart: every
    # public name bound in the package, submodules aside, is in __all__
    import types
    import drmfuse
    public = {name for name, value in vars(drmfuse).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(drmfuse.__all__) == sorted(public)


def test_every_library_error_survives_a_pickle_round_trip():
    # a forked replicate worker sends its exception pickled; the errors whose
    # __init__ take other parameters than their message are built from these
    made = {
        NonPositiveValue: ("r", 4, -1.0),
        EmptySample: ("r",),
        DuplicateBasis: (Basis.LOG,),
        NonFinite: ("score",),
        NoConvergence: (7, 1.5e-3),
        cli.ParseError: (3, "bad value 'x'"),
        cli.UnknownRegion: ("r",),
        cli.EmptyAfterFilter: ("r",),
        simulation.ExcessiveFailures: (3, 20),
    }
    classes = {obj for module in (core, cli, simulation) for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, DrmError)}
    assert set(made) < classes
    for cls in classes:
        for label in (None, "n1"):
            error = cls(*made.get(cls, ("a message",)))
            if label is not None:
                error.label = label
            back = pickle.loads(pickle.dumps(error))
            assert type(back) is cls
            assert (str(back), back.label, back.args, vars(back)) == \
                (str(error), label, error.args, vars(error)), cls
