"""Scalar/vectorised parity for the query engine, and incremental top-k.

The query-engine contract: every batch query path is bit-identical to the
scalar loop it replaces —

* ``estimate_many(users)`` == ``[estimate(u) for u in users]`` for all six
  methods, plain, sharded and snapshot-restored;
* ``estimate_fresh_many(users)`` == per-user ``estimate_fresh`` for the
  shared-sketch methods (CSE/vHLL), including on a restored estimator whose
  positions cache starts empty;
* the monitor's incremental top-k equals a full stable re-sort of the
  sliding-window estimates after arbitrary ingest/rotation sequences;
* ``ReadSnapshot.batch_spread``'s columnar integer fast path equals the
  per-user ``spread`` loop, hits and misses alike.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import CSE, PerUserHLLPP, PerUserLPC, VirtualHLL
from repro.core.freebs import FreeBS
from repro.core.freers import FreeRS
from repro.core.serialization import dumps, loads
from repro.engine import ShardedEstimator
from repro.monitor import MonitorSpec, TopKTracker
from repro.monitor.snapshot import monitor_from_json, monitor_to_json
from repro.streams import zipf_bipartite_stream

_SETTINGS = settings(max_examples=20, deadline=None)


def _factories():
    return {
        "FreeBS": lambda seed=3: FreeBS(1 << 12, seed=seed),
        "FreeRS": lambda seed=3: FreeRS(1 << 10, seed=seed),
        "CSE": lambda seed=3: CSE(1 << 13, virtual_size=64, seed=seed),
        "vHLL": lambda seed=3: VirtualHLL(1 << 12, virtual_size=64, seed=seed),
        "LPC": lambda seed=3: PerUserLPC(1 << 15, expected_users=40, seed=seed),
        "HLL++": lambda seed=3: PerUserHLLPP(1 << 15, expected_users=40, seed=seed),
    }


_METHOD_NAMES = list(_factories())


@pytest.fixture(scope="module")
def stream():
    return zipf_bipartite_stream(
        n_users=60, n_pairs=4_000, max_cardinality=400, duplicate_factor=0.3, seed=11
    )


def _query_users(stream):
    """Seen users plus unseen ids plus int/str-shaped near-misses."""
    seen = list(dict.fromkeys(user for user, _ in stream))
    return seen + [10**9, -5, "no-such-user", str(seen[0]), 10**20]


class TestEstimateManyParity:
    @pytest.mark.parametrize("name", _METHOD_NAMES)
    def test_plain(self, stream, name):
        estimator = _factories()[name]()
        estimator.process(stream)
        users = _query_users(stream)
        assert estimator.estimate_many(users) == [
            estimator.estimate(user) for user in users
        ]

    @pytest.mark.parametrize("name", ["FreeBS", "FreeRS", "CSE", "vHLL", "LPC", "HLL++"])
    def test_sharded(self, stream, name):
        factory = _factories()[name]
        estimator = ShardedEstimator(lambda _k: factory(seed=9), shards=3, seed=5)
        estimator.process(stream)
        users = _query_users(stream)
        assert estimator.estimate_many(users) == [
            estimator.estimate(user) for user in users
        ]

    @pytest.mark.parametrize("name", ["FreeBS", "FreeRS", "CSE", "vHLL", "LPC", "HLL++"])
    def test_snapshot_restored(self, stream, name):
        estimator = _factories()[name]()
        estimator.process(stream)
        restored = loads(dumps(estimator))
        users = _query_users(stream)
        expected = [estimator.estimate(user) for user in users]
        assert restored.estimate_many(users) == expected
        assert [restored.estimate(user) for user in users] == expected

    def test_mixed_key_types(self):
        estimator = FreeBS(1 << 12, seed=2)
        pairs = [(3, 1), ("3", 2), (("tup", 1), 3), (b"raw", 4), (3, 5)]
        for user, item in pairs:
            estimator.update(user, item)
        users = [3, "3", ("tup", 1), b"raw", "missing", 99]
        assert estimator.estimate_many(users) == [
            estimator.estimate(user) for user in users
        ]

    def test_sharded_mixed_key_routing(self):
        estimator = ShardedEstimator(lambda _k: FreeBS(1 << 12, seed=1), shards=4, seed=2)
        pairs = [(3, 1), ("3", 2), (("tup", 1), 3), (-7, 4), (2**70, 5)]
        estimator.update_batch(pairs)
        users = [user for user, _ in pairs] + ["missing", 12]
        assert estimator.estimate_many(users) == [
            estimator.estimate(user) for user in users
        ]


class TestEstimateFreshManyParity:
    @pytest.mark.parametrize("name", ["CSE", "vHLL"])
    def test_matches_scalar(self, stream, name):
        estimator = _factories()[name]()
        estimator.process(stream)
        users = _query_users(stream)
        assert estimator.estimate_fresh_many(users) == [
            estimator.estimate_fresh(user) for user in users
        ]

    @pytest.mark.parametrize("name", ["CSE", "vHLL"])
    def test_restored_position_rows_rebuild(self, stream, name):
        """Regression: a restored estimator starts with no materialised
        position rows; ``estimate_fresh`` used to answer 0.0 for every user
        it actually tracks (present only in the serialized estimate table)."""
        estimator = _factories()[name]()
        estimator.process(stream)
        fresh_before = {
            user: estimator.estimate_fresh(user) for user in estimator.estimates()
        }
        restored = loads(dumps(estimator))
        assert restored._arena.positions_cached_count() == 0
        for user, value in fresh_before.items():
            assert restored.estimate_fresh(user) == value, f"stale for {user!r}"
        users = list(fresh_before)
        assert restored.estimate_fresh_many(users) == [
            fresh_before[user] for user in users
        ]

    @pytest.mark.parametrize("name", ["CSE", "vHLL"])
    def test_unseen_users_stay_zero(self, stream, name):
        estimator = _factories()[name]()
        estimator.process(stream[:500])
        assert estimator.estimate_fresh("never-seen") == 0.0
        assert estimator.estimate_fresh_many(["never-seen", 10**9]) == [0.0, 0.0]

    @_SETTINGS
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=25),
                st.integers(min_value=0, max_value=300),
            ),
            max_size=200,
        )
    )
    def test_property_cse_vhll(self, pairs):
        for factory in (
            lambda: CSE(1 << 11, virtual_size=32, seed=7),
            lambda: VirtualHLL(1 << 10, virtual_size=32, seed=7),
        ):
            estimator = factory()
            estimator.process(pairs)
            users = list(range(28))
            assert estimator.estimate_many(users) == [
                estimator.estimate(user) for user in users
            ]
            assert estimator.estimate_fresh_many(users) == [
                estimator.estimate_fresh(user) for user in users
            ]


def _full_resort_top(monitor, k):
    estimates = monitor.last_window_estimates()
    return sorted(estimates.items(), key=lambda item: item[1], reverse=True)[:k]


def _restored(monitor):
    return monitor_from_json(json.loads(json.dumps(monitor_to_json(monitor))))


_INCREMENTAL_CASES = [
    pytest.param(method, "plain", id=method)
    for method in ("FreeBS", "FreeRS", "CSE", "vHLL", "LPC", "HLL++")
] + [
    pytest.param(method, variant, id=f"{method}-{variant}")
    for method in ("FreeBS", "FreeRS")
    for variant in ("2-shards", "str-keys", "restored")
]


class TestIncrementalTopK:
    @pytest.mark.parametrize("method, variant", _INCREMENTAL_CASES)
    def test_matches_full_resort_across_rotations(self, method, variant):
        pairs = zipf_bipartite_stream(
            n_users=120, n_pairs=12_000, max_cardinality=600, duplicate_factor=0.3, seed=6
        )
        if variant == "str-keys":
            pairs = [(f"u{user}", item) for user, item in pairs]
        spec = MonitorSpec(
            method=method,
            memory_bits=1 << 15,
            expected_users=120,
            shards=2 if variant == "2-shards" else 1,
            epoch_pairs=3_000,
            window_epochs=3,
            delta=5e-3,
            top_k=7,
        )
        monitor = spec.build()
        additive = method in ("FreeBS", "FreeRS")
        # The additive methods' incremental path must leave exactly the
        # table a full evaluation of every batch leaves, key order included.
        reference = spec.build() if additive else None
        for start in range(0, len(pairs), 700):
            if variant == "restored" and start == 4_200:
                monitor, reference = _restored(monitor), _restored(reference)
            batch = pairs[start : start + 700]
            monitor.observe(batch)
            assert monitor.current_top == _full_resort_top(monitor, 7), (
                f"{method}: top-k diverged from full re-sort at pair {start + 700}"
            )
            if additive:
                reference.window.ingest(batch)
                reference.evaluate()
                scored = list(monitor.last_window_estimates().items())
                assert scored == list(reference.last_window_estimates().items())
                assert dict(scored) == monitor.window.window_estimates()
        if additive:
            assert monitor.incremental_evaluations > 0

    def test_incremental_equals_forced_full_evaluation(self):
        """Scores and alerts (absolute threshold) are identical whether every
        batch is absorbed incrementally or via a full re-evaluation."""
        pairs = zipf_bipartite_stream(
            n_users=80, n_pairs=9_000, max_cardinality=500, duplicate_factor=0.4, seed=8
        )
        spec = MonitorSpec(
            method="FreeBS",
            memory_bits=1 << 16,
            expected_users=80,
            epoch_pairs=2_500,
            window_epochs=3,
            delta=None,
            threshold=120.0,
            top_k=10,
        )
        fast, slow = spec.build(), spec.build()
        for start in range(0, len(pairs), 600):
            batch = pairs[start : start + 600]
            fast_alerts = fast.observe(batch)
            slow.window.ingest(batch)
            slow_alerts = slow.evaluate()
            assert fast.last_window_estimates() == slow.last_window_estimates()
            assert fast.current_top == slow.current_top
            assert {(a.kind, a.user) for a in fast_alerts} == {
                (a.kind, a.user) for a in slow_alerts
            }
            # Within-batch alert order differs (dirty-set vs dict order), so
            # the active set is compared unordered.
            assert set(fast.active_spreaders) == set(slow.active_spreaders)
        assert fast.incremental_evaluations > 0

    def test_direct_window_ingest_falls_back_to_full(self):
        """Pairs fed around observe() must not leave the tracker stale."""
        spec = MonitorSpec(
            method="FreeBS",
            memory_bits=1 << 14,
            expected_users=20,
            epoch_pairs=10_000,
            window_epochs=2,
            delta=5e-3,
        )
        monitor = spec.build()
        monitor.observe([(1, i) for i in range(50)])
        monitor.window.ingest([(2, i) for i in range(500)])  # bypasses observe
        monitor.observe([(3, 1)])
        estimates = monitor.last_window_estimates()
        assert estimates == monitor.window.window_estimates()
        assert monitor.current_top == _full_resort_top(monitor, monitor.top_k)


def _apply(tracker: TopKTracker, changed: dict) -> None:
    """Feed ``changed`` to the tracker as columns (users + float64 scores)."""
    tracker.apply_updates(list(changed), np.array(list(changed.values()), dtype=np.float64))


class TestTopKTracker:
    @_SETTINGS
    @given(
        rounds=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=15),
                    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                ),
                max_size=8,
            ),
            max_size=12,
        ),
        k=st.integers(min_value=1, max_value=5),
    )
    def test_monotone_updates_match_full_resort(self, rounds, k):
        tracker = TopKTracker(k)
        tracker.full_refresh({})
        reference: dict = {}
        for updates in rounds:
            changed = {}
            for user, bump in updates:
                changed[user] = reference.get(user, 0.0) + bump
            reference.update(changed)
            _apply(tracker, changed)
            expected = sorted(
                tracker.scores.items(), key=lambda item: item[1], reverse=True
            )[:k]
            assert tracker.head == expected
            assert tracker.scores == reference

    def test_non_monotone_update_triggers_exact_rebuild(self):
        tracker = TopKTracker(2)
        tracker.full_refresh({"a": 5.0, "b": 4.0, "c": 3.0})
        assert tracker.head == [("a", 5.0), ("b", 4.0)]
        _apply(tracker, {"a": 1.0})  # decrease: must not keep stale head
        assert tracker.head == [("b", 4.0), ("c", 3.0)]

    def test_ties_keep_first_seen_order(self):
        tracker = TopKTracker(3)
        tracker.full_refresh({"x": 2.0, "y": 2.0, "z": 2.0, "w": 2.0})
        assert tracker.head == [("x", 2.0), ("y", 2.0), ("z", 2.0)]
        _apply(tracker, {"w": 2.0})  # equal score: rank keeps it out
        assert tracker.head == [("x", 2.0), ("y", 2.0), ("z", 2.0)]
        _apply(tracker, {"w": 2.5})
        assert tracker.head == [("w", 2.5), ("x", 2.0), ("y", 2.0)]


class TestSnapshotBatchSpread:
    def _snapshot(self, method="FreeRS"):
        pairs = zipf_bipartite_stream(
            n_users=300, n_pairs=8_000, max_cardinality=400, duplicate_factor=0.3, seed=12
        )
        monitor = MonitorSpec(
            method=method,
            memory_bits=1 << 15,
            expected_users=300,
            epoch_pairs=3_000,
            window_epochs=3,
            delta=5e-3,
        ).build()
        monitor.observe(pairs)
        return monitor.read_snapshot()

    def test_int_fast_path_matches_spread(self):
        snapshot = self._snapshot()
        users = list(range(-5, 400)) + [10**9]
        assert snapshot.batch_spread(users) == [snapshot.spread(u) for u in users]

    def test_numpy_int_dtype_queries(self):
        snapshot = self._snapshot()
        users = np.arange(0, 120, dtype=np.int64).tolist()
        assert snapshot.batch_spread(users) == [snapshot.spread(u) for u in users]

    def test_mixed_and_string_queries_fall_back(self):
        snapshot = self._snapshot()
        some_int = next(u for u in snapshot.estimates if isinstance(u, int))
        users = [some_int, str(some_int), "missing", 10**20, -1] * 5
        assert snapshot.batch_spread(users) == [snapshot.spread(u) for u in users]

    def test_topk_deep_k_matches_ranked(self):
        snapshot = self._snapshot()
        deep = snapshot.topk(len(snapshot.estimates))
        assert deep == [(u, float(v)) for u, v in snapshot.ranked]
        head = snapshot.topk(5)
        assert head == deep[:5]
