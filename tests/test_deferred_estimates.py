"""CSE's and vHLL's deferred estimates: worked out on first read, bit for bit.

The batch paths commit a batch's change events and publish its users, but
work out the users' as-of-last-arrival estimates only when the cached
estimates are first read (``settle``).  The deferral must be invisible:
every read order gives the scalar loop's estimates, values and key order
included.  Whatever changes the shared array or the estimates outside
``update_encoded`` settles or drops what is owed first, copies carry it,
the pending log stays bounded, and the served path never settles.
"""

from __future__ import annotations

import copy
import pickle
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import CSE, VirtualHLL
from repro.engine import ShardedEstimator, kernels
from repro.monitor import MonitorSpec, SnapshotStore, merge_into, merged_copy
from repro.state import UserArena

FACTORIES = {
    # Small arrays, so virtual sketches share cells and the array fills.
    "CSE": lambda: CSE(3001, virtual_size=48, seed=5),
    "vHLL": lambda: VirtualHLL(1901, virtual_size=48, seed=5),
    "CSE-2shards": lambda: ShardedEstimator(
        lambda _k: CSE(3001, virtual_size=48, seed=5), shards=2, seed=3
    ),
    "vHLL-2shards": lambda: ShardedEstimator(
        lambda _k: VirtualHLL(1901, virtual_size=48, seed=5), shards=2, seed=3
    ),
}
NAMES = sorted(FACTORIES)
PLAIN = ["CSE", "vHLL"]


def _pairs(count: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    # Skewed users, so some recur in every batch and some come back later.
    return [(int(rng.paretovariate(1.2)) % 60, rng.randint(0, 900)) for _ in range(count)]


def _scalar(estimator, pairs):
    for user, item in pairs:
        estimator.update(user, item)
    return estimator


def _batches(estimator, pairs, size: int = 97):
    for start in range(0, len(pairs), size):
        estimator.update_batch(pairs[start : start + size])
    return estimator


def _leaves(estimator) -> list:
    return list(getattr(estimator, "shards", [estimator]))


def _state(estimator) -> tuple:
    """Cached estimates (key types, order and float bits) and the arrays."""
    estimates = [
        (type(user), user, struct.pack("<d", value))
        for user, value in estimator.estimates().items()
    ]
    arrays = []
    for leaf in _leaves(estimator):
        if isinstance(leaf, CSE):
            arrays.append(leaf._bits._words.tobytes())
        else:
            registers = leaf._registers
            arrays.append((registers.values.tobytes(), registers.harmonic_sum, registers.zeros))
    return estimates, arrays


def _owed(estimator) -> bool:
    return any(leaf._arena.clock > leaf._arena._settled for leaf in _leaves(estimator))


def _count_settles(monkeypatch) -> list[int]:
    """From now on, each settle appends the events its log held."""
    settles = []
    take = UserArena.take_pending

    def counting(arena):
        events = arena.pending_events
        pending = take(arena)
        if pending is not None:
            settles.append(events)
        return pending

    monkeypatch.setattr(UserArena, "take_pending", counting)
    return settles


class TestReadOrders:
    @pytest.mark.parametrize("name", NAMES)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_every_read_order_gives_the_scalar_estimates(self, name, data):
        """Settled after every batch, settled once at the end, and batches
        interleaved with reads and scalar updates: all equal the scalar
        loop, after every batch and at the end."""
        pairs = _pairs(data.draw(st.integers(1, 700)), seed=data.draw(st.integers(0, 99)))
        scalar, each, once, mixed = (FACTORIES[name]() for _ in range(4))
        position = 0
        while position < len(pairs):
            chunk = pairs[position : position + data.draw(st.integers(1, 150))]
            position += len(chunk)
            _scalar(scalar, chunk)
            each.update_batch(chunk)
            assert _state(each) == _state(scalar)
            once.update_batch(chunk)
            action = data.draw(st.sampled_from(["batch", "scalar", "estimate", "many"]))
            if action == "scalar":
                _scalar(mixed, chunk)
                continue
            mixed.update_batch(chunk)
            if action == "estimate":
                assert mixed.estimate(chunk[-1][0]) == scalar.estimate(chunk[-1][0])
            elif action == "many":
                users = [user for user, _ in chunk] + [-1]
                assert mixed.estimate_many(users) == scalar.estimate_many(users)
        assert _owed(once) or len(pairs) == 0
        for estimator in (each, once, mixed):
            assert _state(estimator) == _state(scalar)

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("rows", [1, 7])
    def test_a_settle_in_many_blocks_gives_the_scalar_estimates(self, name, rows, monkeypatch):
        """Blocks of a few users each: every block's slice of the owed
        users' arrivals, corrections and global terms stays aligned."""
        monkeypatch.setattr(kernels, "_SETTLE_BLOCK_CELLS", rows * 48)
        pairs = _pairs(900, seed=9)
        assert len({user for user, _item in pairs}) > 4 * rows
        batched = _batches(FACTORIES[name](), pairs, size=300)
        assert _owed(batched)
        assert _state(batched) == _state(_scalar(FACTORIES[name](), pairs))


class TestOutsideTheUpdatePath:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("refresh", [False, True], ids=["deferred-refresh", "refresh"])
    def test_a_union_merge_settles_the_target_first(self, name, refresh):
        """The target's owed estimates read its array before the union, so
        they equal the scalar loop's, as the eager batch path left them."""
        first, second = _pairs(500, seed=1), _pairs(400, seed=2)
        target = _batches(FACTORIES[name](), first)
        source = _batches(FACTORIES[name](), second)
        assert _owed(target)
        merge_into(target, source, refresh_estimates=refresh)
        reference = _scalar(FACTORIES[name](), first)
        reference.estimates()
        merge_into(reference, _scalar(FACTORIES[name](), second), refresh_estimates=refresh)
        assert _state(target) == _state(reference)
        if not refresh:
            # Old users keep their as-of-last-arrival estimates; the
            # source's new users are published at 0.0 (key order is the
            # reference's, checked above).
            expected = _scalar(FACTORIES[name](), first).estimates()
            for user, _item in second:
                expected.setdefault(user, 0.0)
            assert target.estimates() == expected

    @pytest.mark.parametrize("name", NAMES)
    def test_a_refreshing_merge_drops_what_is_owed(self, name, monkeypatch):
        """``merged_copy`` and ``merge_into`` with a refresh rewrite every
        cached estimate, so they drop what the target owes, unsettled."""
        first, second = _pairs(500, seed=1), _pairs(400, seed=2)
        target = _batches(FACTORIES[name](), first)
        source = _batches(FACTORIES[name](), second)
        reference = merge_into(
            _scalar(FACTORIES[name](), first), _scalar(FACTORIES[name](), second)
        )
        settles = _count_settles(monkeypatch)
        merged = merged_copy([target, source])
        assert settles == [] and _owed(target) and _owed(source) and not _owed(merged)
        merge_into(target, source)
        assert settles == [] and not _owed(target)
        assert _state(merged) == _state(target) == _state(reference)

    @pytest.mark.parametrize("name", NAMES)
    def test_a_scalar_update_settles_first(self, name):
        """The scalar path's flips are not logged: it settles before it
        touches the array."""
        pairs = _pairs(700, seed=3)
        estimator = _batches(FACTORIES[name](), pairs[:500])
        assert _owed(estimator)
        _scalar(estimator, pairs[500:600])
        _batches(estimator, pairs[600:])
        assert _state(estimator) == _state(_scalar(FACTORIES[name](), pairs))

    @pytest.mark.parametrize("name", PLAIN)
    @pytest.mark.parametrize("write", ["set_all_estimates", "load_estimates"])
    def test_replacing_the_estimates_drops_what_is_owed(self, name, write):
        """The new values stand; later batches are owed against the log
        from then on, as in an estimator that owed nothing at the write."""
        pairs = _pairs(900, seed=4)
        deferred = _batches(FACTORIES[name](), pairs[:500])
        settled = _batches(FACTORIES[name](), pairs[:500])
        settled.estimates()
        users = deferred._arena.users()
        if write == "set_all_estimates":
            values = {user: float(index) for index, user in enumerate(users)}
        else:
            values = {users[3]: 7.5, users[0]: 1.25}
        for estimator in (deferred, settled):
            if write == "set_all_estimates":
                estimator._arena.set_all_estimates(list(values.values()))
            else:
                estimator._arena.load_estimates(values)
        arena = deferred._arena
        assert not _owed(deferred) and arena._log == [] and arena.pending_events == 0
        assert deferred.estimates() == values
        _batches(deferred, pairs[500:])
        _batches(settled, pairs[500:])
        assert _state(deferred) == _state(settled)

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_carry_what_is_owed(self, name, how):
        pairs = _pairs(800, seed=5)
        original = _batches(FACTORIES[name](), pairs[:500])
        clone = (
            copy.deepcopy(original)
            if how == "deepcopy"
            else pickle.loads(pickle.dumps(original))
        )
        assert _owed(clone)
        _batches(clone, pairs[500:])
        _batches(original, pairs[500:])
        expected = _state(_scalar(FACTORIES[name](), pairs))
        assert _state(clone) == expected
        assert _state(original) == expected


class TestPendingLog:
    @pytest.mark.parametrize("name", PLAIN)
    def test_holds_only_what_arrived_since_the_last_settle(self, name):
        estimator = FACTORIES[name]()
        arena = estimator._arena
        pairs = _pairs(900, seed=6)
        _batches(estimator, pairs[:300], size=100)
        assert len(arena._log) == 3
        assert arena.pending_events == sum(entry[0].size for entry in arena._log)
        estimator.estimates()
        assert arena._log == [] and arena.pending_events == 0 and not _owed(estimator)
        _batches(estimator, pairs[300:400], size=100)
        assert len(arena._log) == 1
        owed = set(user for user, _ in pairs[300:400])
        codes, _arrivals, log = arena.take_pending()
        assert {arena.users()[code] for code in codes.tolist()} == owed
        assert len(log) == 1

    @pytest.mark.parametrize("name", PLAIN)
    def test_its_arrays_count_in_the_bytes_gauge(self, name):
        """The log is retained state until a settle frees it, so its bytes
        count in the arena's ``state.arena.bytes`` figure."""
        estimator = FACTORIES[name]()
        arena = estimator._arena
        _batches(estimator, _pairs(300, seed=10), size=100)
        log_bytes = sum(array.nbytes for entry in arena._log for array in entry)
        assert log_bytes > 0
        columns, reported = arena.stats()["column_bytes"], arena._reported[1]
        estimator.settle()
        assert columns - arena.stats()["column_bytes"] == log_bytes
        assert reported - arena._reported[1] == log_bytes

    def test_cse_logs_each_bit_once(self):
        """A bit flips once, so CSE's log never holds more than M events."""
        estimator = CSE(257, virtual_size=16, seed=1)
        _batches(estimator, _pairs(4000, seed=7))
        flipped = np.concatenate([bits for bits, _times in estimator._arena._log])
        assert flipped.size == np.unique(flipped).size == estimator._bits.ones
        assert estimator._arena.pending_events <= estimator.M

    def test_vhll_settles_itself_at_m_raises(self, monkeypatch):
        """Registers are raised many times over; the batch path settles once
        the log reaches M raises, and the values stay the scalar loop's."""
        settles = _count_settles(monkeypatch)
        pairs = [(user % 9, item) for user, item in enumerate(range(6000))]
        estimator = VirtualHLL(211, virtual_size=16, seed=2)
        for start in range(0, len(pairs), 50):
            estimator.update_batch(pairs[start : start + 50])
            assert estimator._arena.pending_events < estimator.M
        assert settles, "the log never reached M raises"
        assert min(settles) >= estimator.M
        reference = _scalar(VirtualHLL(211, virtual_size=16, seed=2), pairs)
        assert _state(estimator) == _state(reference)


class TestServedPath:
    @pytest.mark.parametrize("method", ["CSE", "vHLL"])
    def test_only_checkpoints_settle(self, method, monkeypatch, tmp_path):
        """``observe``, ``read_snapshot`` and ``sliding_estimates`` through
        several rotations never settle: the sliding merge reads the arrays
        and the publication flags, not the cached estimates.  Each
        ``SnapshotStore.save`` settles every epoch that owes estimates."""
        settles = _count_settles(monkeypatch)
        monitor = MonitorSpec(
            method=method, memory_bits=1 << 16, epoch_pairs=1000, window_epochs=3, top_k=5
        ).build()
        pairs = _pairs(6000, seed=8)
        for start in range(0, 5000, 300):
            monitor.observe(pairs[start : start + 300])
            monitor.read_snapshot()
            for last in (None, 1, 2):
                monitor.sliding_estimates(last)
        assert monitor.window.epochs_started >= 5
        assert settles == []
        assert _owed(monitor.window.live_epoch.estimator)

        store = SnapshotStore(tmp_path)
        for start in (5000, 5500):
            store.save(monitor)
            owing = [epoch.estimator for epoch in monitor.window.epochs]
            assert settles and not any(_owed(estimator) for estimator in owing)
            settles.clear()
            monitor.observe(pairs[start : start + 500])
            assert settles == []

    @pytest.mark.parametrize("method", ["CSE", "vHLL"])
    def test_only_vhll_settles_on_ingest_once_per_m_raises(self, method, monkeypatch):
        """An epoch of many more raises than vHLL's M registers: ``observe``
        settles each time the live epoch's log reaches M raises, and at no
        other time.  CSE's log cannot outgrow M (a bit flips once), so the
        same stream through CSE never settles."""
        settles = _count_settles(monkeypatch)
        monitor = MonitorSpec(
            method=method, memory_bits=1 << 11, virtual_size=16, epoch_pairs=4000, window_epochs=3
        ).build()
        # Every item is new, so registers keep being raised.
        pairs = [(user, index) for index, (user, _item) in enumerate(_pairs(12_000, seed=11))]
        for start in range(0, len(pairs), 250):
            monitor.observe(pairs[start : start + 250])
            monitor.read_snapshot()
            monitor.sliding_estimates()
            M = monitor.window.live_epoch.estimator.M
            logs = [epoch.estimator._arena.pending_events for epoch in monitor.window.epochs]
            assert max(logs) < M
        assert monitor.window.epochs_started >= 3
        if method == "CSE":
            assert settles == []
        else:
            assert len(settles) >= 3 and min(settles) >= M
