"""Invariances the model implies: the fused CDF and its intervals do not
depend on the order of points within a sample or on the order of neighbors."""

import numpy as np
from hypothesis import given, settings, strategies as st

from drmfuse import Sample, TiltSpec, drm_cdf, fit, threshold_probability, validate

TILTS = (TiltSpec.parse("logx"), TiltSpec.parse("x,log2x"), TiltSpec(()))


def _estimates(ref, neighbors, tilts, T):
    model = fit(validate([ref, *neighbors], list(tilts)))
    est = threshold_probability(drm_cdf(model), model, T)
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
