"""Tests for the sharding layer: routing and equivalence.

The property the layer promises (and the acceptance criterion of the engine
refactor): a sharded run over a stream produces, for every user, exactly
the estimate an *unsharded* estimator of the same configuration would
produce if it were fed only the pairs routed to that user's shard.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import VirtualHLL
from repro.core import FreeBS, FreeRS
from repro.engine import ShardedEstimator


def _random_pairs(count, n_users=60, n_items=400, seed=0):
    rng = random.Random(seed)
    return [(rng.randint(0, n_users), rng.randint(0, n_items)) for _ in range(count)]


def _unsharded_reference(sharded, factory, pairs):
    """Run one unsharded estimator per shard over its routed sub-stream."""
    references = [factory(k) for k in range(sharded.num_shards)]
    for user, item in pairs:
        references[sharded.shard_of(user)].update(user, item)
    combined = {}
    for reference in references:
        combined.update(reference.estimates())
    return combined


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_sharded_equals_unsharded_per_shard_runs(self, shards):
        pairs = _random_pairs(3_000, seed=shards)
        factory = lambda k: FreeBS(2048, seed=9)  # noqa: E731
        sharded = ShardedEstimator(factory, shards=shards, seed=21)
        for start in range(0, len(pairs), 311):
            sharded.update_batch(pairs[start : start + 311])
        assert sharded.estimates() == _unsharded_reference(sharded, factory, pairs)

    def test_single_shard_equals_plain_estimator(self):
        pairs = _random_pairs(2_000, seed=7)
        plain = FreeRS(700, seed=3)
        for user, item in pairs:
            plain.update(user, item)
        sharded = ShardedEstimator(lambda k: FreeRS(700, seed=3), shards=1, seed=5)
        sharded.update_batch(pairs)
        assert sharded.estimates() == plain.estimates()

    def test_scalar_and_batch_routing_agree(self):
        pairs = _random_pairs(2_000, seed=8)
        factory = lambda k: VirtualHLL(1900, virtual_size=64, seed=2)  # noqa: E731
        by_scalar = ShardedEstimator(factory, shards=3, seed=11)
        by_batch = ShardedEstimator(factory, shards=3, seed=11)
        for user, item in pairs:
            by_scalar.update(user, item)
        for start in range(0, len(pairs), 173):
            by_batch.update_batch(pairs[start : start + 173])
        assert by_scalar.estimates() == by_batch.estimates()
        assert by_scalar.shard_pair_counts == by_batch.shard_pair_counts

    def test_estimate_routes_to_owner_shard(self):
        pairs = _random_pairs(1_000, seed=9)
        sharded = ShardedEstimator(lambda k: FreeBS(2048, seed=1), shards=4, seed=2)
        sharded.update_batch(pairs)
        combined = sharded.estimates()
        for user in {user for user, _ in pairs}:
            assert sharded.estimate(user) == combined[user]
        assert sharded.estimate("never-seen") == 0.0

    def test_memory_is_summed_across_shards(self):
        sharded = ShardedEstimator(lambda k: FreeBS(2048, seed=1), shards=4, seed=2)
        assert sharded.memory_bits() == 4 * 2048

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            ShardedEstimator(lambda k: FreeBS(64), shards=0)

    def test_factory_rejects_budget_too_small_for_shards(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.estimators import build_estimators

        config = ExperimentConfig(memory_bits=256)
        with pytest.raises(ValueError, match="too small"):
            build_estimators(config, expected_users=10, methods=["FreeBS"], shards=8)

    def test_factory_sharded_memory_totals_the_budget(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.estimators import build_estimators

        config = ExperimentConfig(memory_bits=1 << 16)
        built = build_estimators(config, expected_users=10, methods=["FreeBS"], shards=4)
        assert built["FreeBS"].memory_bits() == 1 << 16


class TestShardedProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=25),
                st.integers(min_value=0, max_value=150),
            ),
            max_size=200,
        ),
        shards=st.integers(min_value=1, max_value=6),
    )
    def test_sharded_then_merged_equals_unsharded(self, pairs, shards):
        factory = lambda k: FreeBS(1024, seed=13)  # noqa: E731
        sharded = ShardedEstimator(factory, shards=shards, seed=3)
        sharded.update_batch(pairs)
        assert sharded.estimates() == _unsharded_reference(sharded, factory, pairs)
