"""Tests for the versioned read-snapshot export and the sliding merge cache.

The load-bearing contracts:

* a :class:`ReadSnapshot`'s spread / batch_spread / topk answers are
  identical to the direct monitor calls on the same state — this is what
  the service layer's acceptance smoke relies on;
* the :class:`SlidingMergeCache` path is bit-identical to
  ``WindowedEstimator.window_estimates`` for every method, in the same key
  order, across epoch rotations (cache invalidation included), sharded,
  snapshot-restored, with non-int user keys and on saturated arrays.
"""

from __future__ import annotations

import json

import pytest

from repro.monitor import MonitorSpec, ReadSnapshot, SlidingMergeCache, normalize_user_key
from repro.monitor.snapshot import monitor_from_json, monitor_to_json
from repro.streams import zipf_bipartite_stream

_METHODS = ["FreeBS", "FreeRS", "CSE", "vHLL", "LPC", "HLL++"]


@pytest.fixture(scope="module")
def stream():
    return zipf_bipartite_stream(
        n_users=80, n_pairs=6_000, max_cardinality=500, duplicate_factor=0.4, seed=5
    )


def _monitor(
    method="FreeRS", epoch_pairs=1_500, window_epochs=4, shards=1, memory_bits=1 << 14
):
    return MonitorSpec(
        method=method,
        memory_bits=memory_bits,
        expected_users=80,
        epoch_pairs=epoch_pairs,
        window_epochs=window_epochs,
        shards=shards,
        delta=5e-3,
    ).build()


class TestReadSnapshot:
    def test_matches_direct_monitor_calls(self, stream):
        monitor = _monitor()
        monitor.observe(stream[:4_000])
        snapshot = monitor.read_snapshot()
        assert isinstance(snapshot, ReadSnapshot)
        estimates = monitor.last_window_estimates()
        for user in list(estimates)[:20]:
            assert snapshot.spread(user) == estimates[user]
        assert snapshot.batch_spread(list(estimates)[:5]) == [
            estimates[user] for user in list(estimates)[:5]
        ]
        assert snapshot.topk(monitor.top_k) == monitor.current_top
        assert snapshot.spread("no-such-user") == 0.0
        assert snapshot.pairs_ingested == 4_000
        assert snapshot.exactness in ("exact", "additive")

    def test_snapshot_is_stable_while_monitor_moves_on(self, stream):
        monitor = _monitor()
        monitor.observe(stream[:2_000])
        snapshot = monitor.read_snapshot()
        before = dict(snapshot.estimates)
        monitor.observe(stream[2_000:4_000])
        assert dict(snapshot.estimates) == before  # old snapshot untouched
        newer = monitor.read_snapshot()
        assert newer.version > snapshot.version
        assert newer.pairs_ingested == 4_000

    def test_version_bumps_per_evaluation(self, stream):
        monitor = _monitor()
        assert monitor.version == 0
        monitor.observe(stream[:1_000])
        monitor.observe(stream[1_000:2_000])
        assert monitor.version == 2

    def test_stats_shape(self, stream):
        monitor = _monitor()
        monitor.observe(stream[:2_000])
        stats = monitor.read_snapshot().stats()
        for key in (
            "version", "method", "pairs_ingested", "epochs_started", "live_epoch",
            "exactness", "regressions", "users_tracked", "total_estimate", "epochs",
        ):
            assert key in stats
        assert stats["method"] == "FreeRS"
        assert stats["pairs_ingested"] == 2_000

    def test_user_key_normalization(self):
        estimates = {42: 1.0, "alice": 2.0}
        assert normalize_user_key(estimates, "42") == 42
        assert normalize_user_key(estimates, 42) == 42
        assert normalize_user_key(estimates, "alice") == "alice"
        assert normalize_user_key(estimates, "7") == "7"  # unseen stays as-is


class TestTotalEstimate:
    def test_delta_times_total_is_the_enter_threshold(self):
        """``stats``' total is the score table's own reduction, so it agrees
        with the delta threshold in every bit.  A Python sum over the window
        users (the earlier form) missed in the last bits here on nearly
        every batch."""
        pairs = zipf_bipartite_stream(n_users=500, n_pairs=12_000, seed=3)
        monitor = MonitorSpec(
            method="FreeBS",
            memory_bits=1 << 16,
            expected_users=500,
            epoch_pairs=8_000,
            window_epochs=3,
            delta=5e-3,
        ).build()
        for start in range(0, len(pairs), 1_000):
            monitor.observe(pairs[start : start + 1_000])
            snapshot = monitor.read_snapshot()
            assert monitor.delta * snapshot.total_estimate() == snapshot.enter_threshold
        assert len(snapshot.estimates) > 400
        assert snapshot.total_estimate() == pytest.approx(sum(snapshot.estimates.values()))


_USER_KEYS = {
    "int": lambda user: user,
    "str": lambda user: f"user-{user}",
    "tuple": lambda user: ("user", user),
}

_SATURATING_BITS = 128

# id -> (method, shards, user-key kind, memory bits): every method plain
# (id = method name) and sharded, non-int keys for the arena-backed methods,
# and a memory budget so small that the merged CSE bit array fills up
# completely (every virtual sketch has zero zeros) and every vHLL register
# is non-zero.
_CACHE_CASES = {
    **{method: (method, 1, "int", 1 << 14) for method in _METHODS},
    **{f"{method}-2shards": (method, 2, "int", 1 << 14) for method in _METHODS},
    **{
        f"{method}-{keys}": (method, 1, keys, 1 << 14)
        for method in ("CSE", "vHLL")
        for keys in ("str", "tuple")
    },
    **{
        f"{method}-saturated": (method, 1, "int", _SATURATING_BITS)
        for method in ("CSE", "vHLL")
    },
}


class TestSlidingMergeCache:
    @pytest.mark.parametrize(
        ("method", "shards", "keys", "memory_bits"),
        list(_CACHE_CASES.values()),
        ids=list(_CACHE_CASES),
    )
    def test_bit_identical_to_uncached_window_estimates(
        self, stream, method, shards, keys, memory_bits
    ):
        to_key = _USER_KEYS[keys]
        pairs = [(to_key(user), item) for user, item in stream]
        monitor = _monitor(method=method, shards=shards, memory_bits=memory_bits)
        cache = SlidingMergeCache()

        def check(window, where):
            for last in (1, 2, window.window_epochs):
                cached = cache.sliding_estimates(window, last)
                reference = window.window_estimates(last)
                assert cached == reference, f"{method} sliding({last}) diverged {where}"
                assert list(cached) == list(reference), (
                    f"{method} sliding({last}) key order diverged {where}"
                )

        for start in range(0, 4_500, 900):
            monitor.observe(pairs[start : start + 900])
            check(monitor.window, f"at pair {start + 900}")
        # A snapshot-restored monitor answers through the same cache: its
        # epochs reuse the original's indices but are new objects, and from
        # here on the two live epochs see the same pairs in opposite orders.
        restored = monitor_from_json(json.loads(json.dumps(monitor_to_json(monitor))))
        check(restored.window, "after restore")
        for start in range(4_500, len(pairs), 900):
            chunk = pairs[start : start + 900]
            monitor.observe(chunk[::-1])
            restored.observe(chunk)
            check(restored.window, f"restored, at pair {start + 900}")
            check(monitor.window, f"at pair {start + 900}")
        if memory_bits == _SATURATING_BITS:
            merged = monitor.window.window_merged()
            if method == "CSE":
                assert merged._bits.zeros == 0  # all ones: every virtual sketch full
            else:
                assert merged._registers.zeros == 0

    def test_prefix_reuse_across_queries(self, stream):
        monitor = _monitor()
        cache = SlidingMergeCache()
        monitor.observe(stream[:4_500])  # 3 epochs
        window = monitor.window
        first = cache.sliding_estimates(window)
        assert len(cache._prefixes) == 1
        second = cache.sliding_estimates(window)
        assert first == second
        assert len(cache._prefixes) == 1  # reused, not rebuilt

    def test_invalidation_on_rotation(self, stream):
        monitor = _monitor(epoch_pairs=1_000, window_epochs=3)
        cache = SlidingMergeCache()
        monitor.observe(stream[:3_500])
        window = monitor.window
        cache.sliding_estimates(window, 3)
        old_keys = set(cache._prefixes)
        monitor.observe(stream[3_500:5_500])  # rotates epochs out of the ring
        cache.sliding_estimates(window, 3)
        assert not (old_keys & set(cache._prefixes))  # stale prefixes evicted
