"""Bit-for-bit scalar/batch equivalence of the engine's vectorised paths.

The engine's contract is strict: for every estimator, replaying a stream
through ``update_batch`` (in any chunking) leaves the estimator in exactly
the state the scalar ``update`` loop produces — same cached estimates (to
the last bit), same shared-array contents, same incremental bookkeeping.
These tests enforce that for the four shared-memory methods and the two
per-user baselines on randomized streams.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import CSE, PerUserHLLPP, PerUserLPC, VirtualHLL
from repro.core import FreeBS, FreeRS
from repro.engine import EncodedBatch


def _random_pairs(count, n_users=50, n_items=600, seed=0):
    rng = random.Random(seed)
    return [(rng.randint(0, n_users), rng.randint(0, n_items)) for _ in range(count)]


def _drive_scalar(estimator, pairs):
    for user, item in pairs:
        estimator.update(user, item)
    return estimator


def _drive_batch(estimator, pairs, chunk):
    for start in range(0, len(pairs), chunk):
        estimator.update_batch(pairs[start : start + chunk])
    return estimator


FACTORIES = {
    # Deliberately non-power-of-two sizes: the scalar increments divide by
    # raw counts, so power-of-two sizes would mask rounding differences.
    "FreeBS": lambda: FreeBS(3000, seed=5),
    "FreeRS": lambda: FreeRS(700, seed=5),
    "CSE": lambda: CSE(5000, virtual_size=96, seed=5),
    "vHLL": lambda: VirtualHLL(1900, virtual_size=96, seed=5),
    "LPC": lambda: PerUserLPC(1 << 15, expected_users=50, seed=5),
    "HLL++": lambda: PerUserHLLPP(1 << 15, expected_users=50, seed=5),
}


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("method", sorted(FACTORIES))
    @pytest.mark.parametrize("chunk", [1, 17, 500, 10_000])
    def test_estimates_bit_identical(self, method, chunk):
        pairs = _random_pairs(2_000, seed=chunk)
        scalar = _drive_scalar(FACTORIES[method](), pairs)
        batch = _drive_batch(FACTORIES[method](), pairs, chunk)
        assert batch.estimates() == scalar.estimates()
        # Same first-seen key order, not just the same mapping.
        assert list(batch.estimates().items()) == list(scalar.estimates().items())

    def test_freebs_internal_state_matches(self):
        pairs = _random_pairs(3_000, seed=1)
        scalar = _drive_scalar(FACTORIES["FreeBS"](), pairs)
        batch = _drive_batch(FACTORIES["FreeBS"](), pairs, 129)
        assert scalar._bits.to_numpy().tolist() == batch._bits.to_numpy().tolist()
        assert scalar.change_probability == batch.change_probability
        assert scalar.pairs_processed == batch.pairs_processed
        assert scalar.pairs_sampled == batch.pairs_sampled

    def test_freers_internal_state_matches(self):
        pairs = _random_pairs(3_000, seed=2)
        scalar = _drive_scalar(FACTORIES["FreeRS"](), pairs)
        batch = _drive_batch(FACTORIES["FreeRS"](), pairs, 129)
        assert scalar._registers.values.tolist() == batch._registers.values.tolist()
        # The incrementally-maintained harmonic sum must follow the exact
        # scalar floating-point trajectory, not just approximate it.
        assert scalar._registers.harmonic_sum == batch._registers.harmonic_sum
        assert scalar.pairs_sampled == batch.pairs_sampled

    def test_cse_shared_array_and_fresh_estimates_match(self):
        pairs = _random_pairs(3_000, seed=3)
        scalar = _drive_scalar(FACTORIES["CSE"](), pairs)
        batch = _drive_batch(FACTORIES["CSE"](), pairs, 129)
        assert scalar._bits.to_numpy().tolist() == batch._bits.to_numpy().tolist()
        for user in {user for user, _ in pairs}:
            assert scalar.estimate_fresh(user) == batch.estimate_fresh(user)

    def test_vhll_shared_array_and_fresh_estimates_match(self):
        pairs = _random_pairs(3_000, seed=4)
        scalar = _drive_scalar(FACTORIES["vHLL"](), pairs)
        batch = _drive_batch(FACTORIES["vHLL"](), pairs, 129)
        assert scalar._registers.values.tolist() == batch._registers.values.tolist()
        assert scalar._registers.harmonic_sum == batch._registers.harmonic_sum
        for user in {user for user, _ in pairs}:
            assert scalar.estimate_fresh(user) == batch.estimate_fresh(user)

    def test_per_user_sketch_allocation_matches(self):
        pairs = _random_pairs(2_000, seed=5)
        scalar = _drive_scalar(FACTORIES["LPC"](), pairs)
        batch = _drive_batch(FACTORIES["LPC"](), pairs, 129)
        assert scalar.users_allocated == batch.users_allocated
        assert scalar.memory_bits() == batch.memory_bits()

    def test_string_keys_supported(self):
        pairs = [(f"user-{i % 7}", f"item-{i % 40}") for i in range(500)]
        scalar = _drive_scalar(CSE(4000, virtual_size=64, seed=1), pairs)
        batch = _drive_batch(CSE(4000, virtual_size=64, seed=1), pairs, 37)
        assert batch.estimates() == scalar.estimates()

    def test_register_saturation_handled(self):
        scalar = VirtualHLL(600, virtual_size=32, register_width=3, seed=3)
        batch = VirtualHLL(600, virtual_size=32, register_width=3, seed=3)
        pairs = [("u", item) for item in range(4_000)]
        _drive_scalar(scalar, pairs)
        _drive_batch(batch, pairs, 333)
        assert batch.estimates() == scalar.estimates()

    @pytest.mark.parametrize("method", ["CSE", "vHLL"])
    def test_users_before_the_first_change_event(self, method):
        """A batch opening with repeats (which change nothing) evaluates
        their users against the shared array as it stood at batch start."""
        # Enough distinct pairs that vHLL's global estimate has left linear
        # counting, so every change event moves the global term.
        warmup = _random_pairs(8_000, n_items=5_000, seed=6)
        fresh = [(user + 100, item) for user, item in _random_pairs(300, n_items=10**6, seed=7)]
        scalar = _drive_scalar(FACTORIES[method](), warmup + warmup[:300] + fresh)
        batch = _drive_batch(FACTORIES[method](), warmup, 500)
        batch.update_batch(warmup[:300] + fresh)
        assert list(batch.estimates().items()) == list(scalar.estimates().items())

    def test_empty_batch_is_noop(self):
        for factory in FACTORIES.values():
            estimator = factory()
            estimator.update_batch([])
            assert estimator.estimates() == {}

    def test_update_encoded_empty_batch_is_noop(self):
        estimator = FACTORIES["vHLL"]()
        estimator.update_encoded(
            EncodedBatch.from_int_arrays(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        )
        assert estimator.estimates() == {}


class TestBatchProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=120),
            ),
            max_size=150,
        ),
        chunk=st.integers(min_value=1, max_value=40),
    )
    def test_cse_batch_equals_scalar(self, pairs, chunk):
        scalar = _drive_scalar(CSE(2048, virtual_size=32, seed=13), pairs)
        batch = _drive_batch(CSE(2048, virtual_size=32, seed=13), pairs, chunk)
        assert batch.estimates() == scalar.estimates()

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=120),
            ),
            max_size=150,
        ),
        chunk=st.integers(min_value=1, max_value=40),
    )
    def test_vhll_batch_equals_scalar(self, pairs, chunk):
        scalar = _drive_scalar(VirtualHLL(900, virtual_size=32, seed=13), pairs)
        batch = _drive_batch(VirtualHLL(900, virtual_size=32, seed=13), pairs, chunk)
        assert batch.estimates() == scalar.estimates()

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=-(2**70), max_value=2**70),
                st.integers(min_value=-(2**70), max_value=2**70),
            ),
            max_size=100,
        ),
        chunk=st.integers(min_value=1, max_value=40),
    )
    def test_freebs_batch_equals_scalar_on_extreme_ids(self, pairs, chunk):
        scalar = _drive_scalar(FreeBS(1 << 10, seed=13), pairs)
        batch = _drive_batch(FreeBS(1 << 10, seed=13), pairs, chunk)
        assert batch.estimates() == scalar.estimates()
        assert list(batch.estimates().items()) == list(scalar.estimates().items())


SATURATING = {
    # Tiny shared arrays the 41-user stream below saturates: FreeBS reaches
    # q = 0, CSE's global term hits its full-array clamp, FreeRS registers
    # pin at their 3-bit maximum, and vHLL's global estimate switches from
    # linear counting to the raw harmonic form at pair 171, inside a batch
    # for every chunk size but 1.
    "FreeBS": lambda: FreeBS(64, seed=5),
    "FreeRS": lambda: FreeRS(32, register_width=3, seed=5),
    "CSE": lambda: CSE(64, virtual_size=16, seed=5),
    "vHLL": lambda: VirtualHLL(64, virtual_size=16, seed=5),
}

SATURATING_STREAMS = {
    "41-users": lambda: _random_pairs(3_000, n_users=40, n_items=5_000, seed=1),
    "one-user": lambda: [("u", item) for item in range(5_000)],
}


class TestSaturation:
    @pytest.mark.parametrize("chunk", [1, 7, 500, 10_000])
    @pytest.mark.parametrize("stream", sorted(SATURATING_STREAMS))
    @pytest.mark.parametrize("method", sorted(SATURATING))
    def test_saturated_batch_equals_scalar(self, method, stream, chunk):
        pairs = SATURATING_STREAMS[stream]()
        scalar = _drive_scalar(SATURATING[method](), pairs)
        batch = _drive_batch(SATURATING[method](), pairs, chunk)
        assert list(batch.estimates().items()) == list(scalar.estimates().items())
        if method in ("FreeBS", "CSE"):
            assert batch._bits.to_numpy().tolist() == scalar._bits.to_numpy().tolist()
        else:
            assert batch._registers.values.tolist() == scalar._registers.values.tolist()
            assert batch._registers.harmonic_sum == scalar._registers.harmonic_sum
