"""Vectorised query-side kernels: batch estimation over many users at once.

PR 1 vectorised the *update* side of every method; this module is the
query-side twin.  The expensive per-user work when answering
``estimate_many`` / ``estimate_fresh_many`` queries is always one of two
shapes:

* **virtual-sketch decode** (CSE, vHLL) — gather each user's ``m`` physical
  cells from the shared array and reduce them (zero counts, harmonic sums).
  Done per user this is an O(m) Python round-trip; done for a batch it is a
  single ``(n_users, m)`` gather plus one axis-1 numpy reduction.
* **cache gather** (FreeBS, FreeRS, the per-user baselines and every cached
  ``estimate()``) — one dict lookup per user, which only needs a tight
  bound-method loop rather than a method call per user.

Every helper here is *bit-identical* to the scalar loop it replaces: the
reductions produce exactly the integer counts / float sums the scalar
``estimate`` path computes (numpy's axis-1 reduction of a C-contiguous row
matches the 1-D reduction of that row), and the final closed-form formulas
stay in the estimator classes so both paths share one implementation.  The
property suite (``tests/test_query_engine.py``) enforces this per method.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.hashing import fold_key


def gather_cached_estimates(cache: Any, users: Sequence[object]) -> list[float]:
    """Per-user cached estimates in input order (0.0 for unseen users).

    Arena-backed caches (:class:`repro.state.EstimatesView`) resolve the
    whole batch as one vectorised code lookup plus a single masked column
    gather; plain dicts fall back to one bound-method loop, no per-user
    method dispatch.  Both are trivially bit-identical to the scalar
    ``cache.get(user, 0.0)`` path (the gathered column holds the exact
    float64 values the scalar path would read).
    """
    gather = getattr(cache, "gather_default_zero", None)
    if gather is not None:
        return gather(users)
    get = cache.get
    return [get(user, 0.0) for user in users]


def positions_matrix_for_users(
    family: Any, cache: Any, users: Sequence[object]
) -> np.ndarray:
    """Return the ``(len(users), family.m)`` virtual-sketch position matrix.

    For plain user sequences (no :class:`~repro.engine.encoding.EncodedBatch`
    in hand; batch updates read positions from the arena directly).  An
    arena-backed cache (:class:`repro.state.PositionsView`) answers with one
    interned-code gather over its columnar positions block
    (or one vectorised fold evaluation in fold mode) — bit-identical to
    ``family.positions`` by the hashing layer's contract.  For plain dict
    caches, cached rows are stacked in one fancy-indexed copy, missing rows
    are folded and evaluated in one vectorised family pass and written back
    to ``cache``.
    """
    arena = getattr(cache, "_arena", None)
    if arena is not None:
        return arena.positions_rows(arena.intern_many(users))
    n = len(users)
    matrix = np.empty((n, family.m), dtype=np.int64)
    missing: list[int] = []
    hit_rows: list[int] = []
    hit_values: list[np.ndarray] = []
    for row, user in enumerate(users):
        cached = cache.get(user)
        if cached is not None:
            hit_rows.append(row)
            hit_values.append(cached)
        else:
            missing.append(row)
    if hit_values:
        if len(hit_values) == n:
            # All hits: one stacked bulk copy, no index pass.
            np.stack(hit_values, out=matrix)
        else:
            matrix[hit_rows] = np.stack(hit_values)
    if missing:
        folds = np.array([fold_key(users[row]) for row in missing], dtype=np.uint64)
        rows = family.positions_from_hashes(folds)
        matrix[missing] = rows
        for row_index, row in enumerate(missing):
            cache[users[row]] = rows[row_index].copy()
    return matrix


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
