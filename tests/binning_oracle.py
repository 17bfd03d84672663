"""Independent oracle for ``_kernels.at_or_below``: the unsorted-key binning.

The package sorts the n points once and merges the sorted thresholds into
them. This module finds each point's bin the other way, one binary search of
the sorted thresholds per unsorted point, so tests can compare the two bin
arrays through the same counts and weighted sums, bit for bit.
"""

import numpy as np


def at_or_below(t, T, weights=None):
    """Counts, or per-column weight sums, of the points t_i <= T_j, shape (K,)
    or (K, c), with b_i = searchsorted(sorted T, t_i, "left")."""
    T = np.asarray(T, dtype=float)
    K = T.size
    order = np.argsort(T, kind="stable")
    b = np.searchsorted(T[order], t, side="left")
    if weights is None:
        binned = np.bincount(b, minlength=K + 1)[:K]
    else:
        binned = np.empty((K, weights.shape[1]))
        for j in range(weights.shape[1]):
            binned[:, j] = np.bincount(b, weights=weights[:, j], minlength=K + 1)[:K]
    out = np.empty_like(binned)
    out[order] = np.cumsum(binned, axis=0)
    return out
