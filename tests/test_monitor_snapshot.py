"""Tests for monitor checkpoint / recovery and the replay feed.

The acceptance property: a replay killed mid-stream and restored from the
latest snapshot produces exactly the same window estimates and the same
alert feed as an uninterrupted run — for every method, sharded or not.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.monitor import (
    MonitorSpec,
    SnapshotStore,
    monitor_from_json,
    monitor_to_json,
    replay_feed,
)
from repro.state import FrozenScores
from repro.streams import zipf_bipartite_stream

METHODS = ["FreeBS", "FreeRS", "CSE", "vHLL", "LPC", "HLL++"]


@pytest.fixture(scope="module")
def stream():
    return zipf_bipartite_stream(
        n_users=100, n_pairs=6_000, max_cardinality=600, duplicate_factor=0.3, seed=21
    )


def _spec(method, shards=1):
    return MonitorSpec(
        method=method,
        memory_bits=1 << 15,
        virtual_size=64,
        expected_users=100,
        shards=shards,
        epoch_pairs=1_500,
        window_epochs=3,
        delta=5e-3,
    )


def _run(monitor, pairs, **kwargs):
    return list(replay_feed(monitor, pairs, batch_size=700, **kwargs))


class TestKillRestore:
    @pytest.mark.parametrize("method", METHODS)
    def test_restored_monitor_continues_identically(self, stream, method, tmp_path):
        spec = _spec(method)
        store = SnapshotStore(tmp_path / method)
        # Kill on a batch boundary — the only place the replay driver ever
        # snapshots — so the resumed run's evaluation points line up with the
        # uninterrupted reference run.
        half = 2_800  # 4 batches of 700

        # Uninterrupted reference run.
        reference = spec.build()
        reference_records = _run(reference, stream)

        # Killed run: first half, snapshot, restore, second half.
        killed = spec.build()
        _run(killed, stream[:half], snapshot_store=store)
        restored = store.restore()
        assert restored.window.pairs_ingested == killed.window.pairs_ingested
        resumed_records = _run(restored, stream, skip_pairs=restored.window.pairs_ingested)

        assert restored.window.pairs_ingested == len(stream)
        assert restored.window.window_estimates() == reference.window.window_estimates()
        reference_alerts = [r for r in reference_records if r["type"] == "alert"]
        resumed_alerts = [r for r in resumed_records if r["type"] == "alert"]
        # The resumed feed replays only the second half; its alerts must be
        # exactly the reference alerts emitted after the snapshot point.
        after_snapshot = [
            record for record in reference_alerts if record["timestamp"] >= half
        ]
        assert resumed_alerts == after_snapshot
        assert sorted(restored.active_spreaders, key=str) == sorted(
            reference.active_spreaders, key=str
        )
        assert restored.current_top == reference.current_top

    def test_sharded_monitor_round_trips(self, stream, tmp_path):
        spec = _spec("FreeRS", shards=3)
        store = SnapshotStore(tmp_path)
        monitor = spec.build()
        _run(monitor, stream[:3_000], snapshot_store=store)
        restored = store.restore()
        assert restored.window.window_estimates() == monitor.window.window_estimates()
        # Both continue identically.
        tail = stream[3_000:]
        monitor.observe(tail)
        restored.observe(tail)
        assert restored.window.window_estimates() == monitor.window.window_estimates()


class TestRestoredReadSnapshot:
    @pytest.mark.parametrize(
        ("method", "shards"),
        [(method, 1) for method in METHODS] + [("FreeBS", 2)],
        ids=[*METHODS, "FreeBS-2-shards"],
    )
    def test_reads_before_the_first_evaluation_match_the_window(
        self, stream, method, shards, tmp_path
    ):
        """A restored monitor serves its first reads from a score-table checkout.

        Nothing is ingested after the restore, so no evaluation has filled
        the tracker yet; every query op must still answer exactly what a
        fresh merge of the restored window reports.
        """
        store = SnapshotStore(tmp_path)
        _run(_spec(method, shards).build(), stream[:2_800], snapshot_store=store)
        restored = store.restore()
        expected = restored.window.window_estimates()
        snapshot = restored.read_snapshot()
        assert isinstance(snapshot.estimates, FrozenScores)
        assert list(snapshot.estimates.items()) == list(expected.items())
        users = list(expected)
        assert users and all(type(user) is int for user in users)
        assert [snapshot.spread(user) for user in users] == [expected[u] for u in users]
        ids = np.array(users, dtype=np.int64)
        assert snapshot.batch_spread(ids) == [expected[user] for user in users]
        missing = max(users) + 1
        probe = [users[0], str(users[1]), missing, users[2]]
        assert snapshot.batch_spread(probe) == [
            expected[users[0]], expected[users[1]], 0.0, expected[users[2]]
        ]
        k = 2 * restored.top_k
        ranked = sorted(expected.items(), key=lambda item: item[1], reverse=True)
        assert len(users) > k
        assert snapshot.topk(k) == ranked[:k]
        assert snapshot.stats()["users_tracked"] == len(expected)


class TestStore:
    def test_retention_keeps_newest(self, stream, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        monitor = _spec("FreeBS").build()
        for start in range(0, 5_000, 1_000):
            monitor.observe(stream[start : start + 1_000])
            store.save(monitor)
        paths = store.paths()
        assert len(paths) == 2
        assert store.latest() == paths[-1]
        assert store._offset(paths[-1]) == 5_000

    def test_restore_empty_store_raises(self, tmp_path):
        from repro.monitor import SnapshotError

        with pytest.raises(SnapshotError, match="no snapshot files found"):
            SnapshotStore(tmp_path / "nothing").restore()

    def test_restore_truncated_snapshot_names_path_and_recovery(self, stream, tmp_path):
        from repro.monitor import SnapshotError

        store = SnapshotStore(tmp_path)
        monitor = _spec("FreeBS").build()
        monitor.observe(stream[:1_000])
        path = store.save(monitor)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(SnapshotError) as excinfo:
            store.restore()
        message = str(excinfo.value)
        assert str(path) in message
        assert "truncated or corrupt" in message
        assert "Recovery options" in message
        assert excinfo.value.path == path

    def test_save_fsyncs_file_then_replaces_then_fsyncs_directory(
        self, stream, tmp_path, monkeypatch
    ):
        import os
        import stat

        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            calls.append("fsync-directory" if is_dir else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monitor = _spec("FreeBS").build()
        monitor.observe(stream[:1_000])
        path = SnapshotStore(tmp_path).save(monitor)
        assert calls == ["fsync-file", "replace", "fsync-directory"]
        assert path.exists() and not list(tmp_path.glob("*.tmp"))

    def _three_snapshots(self, stream, tmp_path):
        store = SnapshotStore(tmp_path)
        monitor = _spec("FreeBS").build()
        for start in range(0, 3_000, 1_000):
            monitor.observe(stream[start : start + 1_000])
            store.save(monitor)
        return store, store.paths()

    @staticmethod
    def _truncate(path):
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")

    def test_restore_falls_back_past_a_truncated_newest_snapshot(self, stream, tmp_path):
        from repro import obs

        store, (_oldest, middle, newest) = self._three_snapshots(stream, tmp_path)
        self._truncate(newest)
        fallbacks = obs.counter("monitor.snapshot.fallbacks")
        before = fallbacks.value
        restored = store.restore()
        assert fallbacks.value == before + 1
        assert store.restored_path == middle
        direct = store.restore(middle)
        assert restored.window.pairs_ingested == 2_000
        assert list(restored.window.window_estimates().items()) == list(
            direct.window.window_estimates().items()
        )
        assert restored.state_to_json() == direct.state_to_json()  # alert state

    def test_explicit_path_never_falls_back(self, stream, tmp_path):
        from repro.monitor import SnapshotError

        store, (_oldest, _middle, newest) = self._three_snapshots(stream, tmp_path)
        self._truncate(newest)
        with pytest.raises(SnapshotError) as excinfo:
            store.restore(newest)
        assert excinfo.value.path == newest

    def test_restore_raises_the_newest_error_when_every_snapshot_fails(
        self, stream, tmp_path
    ):
        from repro.monitor import SnapshotError

        store, paths = self._three_snapshots(stream, tmp_path)
        for path in paths:
            self._truncate(path)
        with pytest.raises(SnapshotError, match="truncated or corrupt") as excinfo:
            store.restore()
        assert excinfo.value.path == paths[-1]

    def test_restore_wrong_payload_raises_snapshot_error(self, tmp_path):
        import json as json_module

        from repro.monitor import SnapshotError

        store = SnapshotStore(tmp_path)
        tmp_path.mkdir(parents=True, exist_ok=True)
        path = tmp_path / "snapshot-000000000001.json"
        path.write_text(json_module.dumps({"format": "something-else"}), encoding="utf-8")
        with pytest.raises(SnapshotError, match="not a loadable monitor snapshot"):
            store.restore()

    def test_snapshot_payload_is_versioned_json(self, stream, tmp_path):
        monitor = _spec("vHLL").build()
        monitor.observe(stream[:2_000])
        payload = monitor_to_json(monitor)
        assert payload["format"] == "freesketch-monitor-snapshot"
        assert payload["version"] == 1
        assert payload["spec"]["method"] == "vHLL"
        # Round-trips through plain JSON text.
        text = json.dumps(payload)
        assert json.loads(text) == payload

    def test_monitor_without_spec_is_rejected(self, stream):
        from repro.baselines import PerUserLPC
        from repro.monitor import SpreaderMonitor, WindowedEstimator

        window = WindowedEstimator(
            lambda _k: PerUserLPC(1 << 12, expected_users=10, seed=1),
            epoch_pairs=100,
            window_epochs=2,
        )
        monitor = SpreaderMonitor(window, threshold=10.0)
        with pytest.raises(ValueError):
            monitor_to_json(monitor)


class TestReplayFeed:
    def test_feed_shape_and_counts(self, stream):
        monitor = _spec("FreeRS").build()
        records = _run(monitor, stream)
        kinds = {record["type"] for record in records}
        assert {"window", "alert", "summary"} <= kinds
        summary = records[-1]
        assert summary["type"] == "summary"
        assert summary["pairs_ingested"] == len(stream)
        assert summary["alerts_emitted"] == sum(
            1 for record in records if record["type"] == "alert"
        )
        window_records = [record for record in records if record["type"] == "window"]
        assert all("sliding_top" in record for record in window_records)
        assert all(record["exactness"] == "additive" for record in window_records)

    def test_rate_throttles(self, stream):
        import time

        monitor = _spec("FreeBS").build()
        begin = time.perf_counter()
        _run(monitor, stream[:1_400], rate=20_000.0)
        elapsed = time.perf_counter() - begin
        assert elapsed >= 1_400 / 20_000.0


class TestGoldenSnapshot:
    """A monitor snapshot written by format v3 (base85 arrays) still loads."""

    GOLDEN = Path(__file__).parent / "fixtures" / "snapshots_v3" / "monitor-v3-FreeBS.json"

    @staticmethod
    def _reference():
        """The monitor the golden was written from, and its stream."""
        stream = zipf_bipartite_stream(
            n_users=40, n_pairs=2_000, max_cardinality=300, duplicate_factor=0.3, seed=21
        )
        spec = MonitorSpec(
            method="FreeBS",
            memory_bits=1 << 12,
            expected_users=40,
            epoch_pairs=400,
            window_epochs=3,
            delta=0.05,
        )
        monitor = spec.build()
        for start in range(0, 1_600, 200):
            monitor.observe(stream[start : start + 200])
        return monitor, stream

    @staticmethod
    def _assert_same(restored, reference):
        assert list(restored.window.window_estimates().items()) == list(
            reference.window.window_estimates().items()
        )
        for ours, theirs in zip(restored.window.epochs, reference.window.epochs, strict=True):
            assert ours.summary() == theirs.summary()
            assert ours.estimator._bits._words.tolist() == theirs.estimator._bits._words.tolist()
            assert list(ours.estimator.estimates().items()) == list(
                theirs.estimator.estimates().items()
            )
        assert restored.active_spreaders == reference.active_spreaders
        assert restored.current_top == reference.current_top

    def test_v3_monitor_snapshot_loads_identically(self):
        reference, stream = self._reference()
        payload = json.loads(self.GOLDEN.read_text(encoding="utf-8"))
        epochs = payload["window"]["epochs"]
        assert {epoch["estimator"]["version"] for epoch in epochs} == {3}
        restored = monitor_from_json(payload)
        assert restored.active_spreaders  # the golden carries live alert state
        self._assert_same(restored, reference)
        assert restored.state_to_json() == reference.state_to_json()
        batch = stream[1_600:1_800]
        ours, theirs = restored.observe(batch), reference.observe(batch)
        self._assert_same(restored, reference)
        # The enter threshold of the first evaluation after a restore may
        # differ from the uninterrupted run's in the last bit (the window
        # total is summed over a differently ordered score table), so the
        # alerts are compared without it.
        assert [(a.kind, a.user, a.estimate, a.sequence) for a in ours] == [
            (a.kind, a.user, a.estimate, a.sequence) for a in theirs
        ]
