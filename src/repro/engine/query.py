"""Vectorised query-side kernels: virtual-sketch decode over many users at once.

The engine's batch paths vectorise the *update* side of every method; this
module is the query-side twin for CSE and vHLL.  Answering
``estimate_fresh_many`` means gathering each user's ``m`` physical cells
from the shared array and reducing them (zero counts, harmonic sums).
Done per user this is an O(m) Python round-trip; done for a batch it is a
single ``(n_users, m)`` gather plus one axis-1 numpy reduction.  (Cached
estimates need no kernel: every estimator answers ``estimate_many`` with
one :meth:`~repro.state.UserArena.estimate_column` gather, once CSE and
vHLL have settled what their batch paths deferred.)

Every helper here is *bit-identical* to the scalar loop it replaces: the
reductions produce exactly the integer counts / float sums the scalar
``estimate`` path computes (numpy's axis-1 reduction of a C-contiguous row
matches the 1-D reduction of that row), and the final closed-form formulas
stay in the estimator classes so both paths share one implementation.  The
property suite (``tests/test_query_engine.py``) enforces this per method.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def row_zero_bit_counts(bits: Any, positions_matrix: np.ndarray) -> np.ndarray:
    """Per-row count of *zero* bits at the given positions of a ``BitArray``.

    One flat gather plus an axis-1 count; row ``i`` equals the scalar
    ``int(np.count_nonzero(~bits.get_bits(positions_matrix[i])))`` exactly
    (integer counting has no rounding to disagree on).  A gather of at
    least one position per 8 bits of the array (a whole-population
    refresh) unpacks the array once and takes from the unpacked bits, which
    is cheaper per position than :meth:`~repro.sketches.BitArray.get_bits`
    once the unpack is amortised.
    """
    if positions_matrix.size * 8 >= bits.size:
        ones = np.count_nonzero(np.take(bits.to_numpy(), positions_matrix), axis=1)
        return positions_matrix.shape[1] - ones
    flat = positions_matrix.ravel()
    zero = ~bits.get_bits(flat)
    return zero.reshape(positions_matrix.shape).sum(axis=1)


def row_register_values(registers: Any, positions_matrix: np.ndarray) -> np.ndarray:
    """Gather the raw register values at every position of a ``(n, m)`` matrix."""
    return np.take(registers.values, positions_matrix)


def row_harmonic_sums(values_matrix: np.ndarray) -> np.ndarray:
    """Per-row ``sum_j 2^-values[j]`` of a register-value matrix.

    Row ``i`` equals ``float(np.sum(np.exp2(-values_matrix[i].astype(f8))))``
    bit-for-bit: numpy reduces the last axis of a C-contiguous float64 array
    with the same pairwise algorithm it applies to the standalone row.
    """
    return np.sum(np.exp2(-values_matrix.astype(np.float64)), axis=1)


def row_zero_counts(values_matrix: np.ndarray) -> np.ndarray:
    """Per-row count of zero-valued registers of a register-value matrix."""
    return np.count_nonzero(values_matrix == 0, axis=1)
