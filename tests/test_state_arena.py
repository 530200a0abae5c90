"""The columnar user-state arena: dict-parity, snapshots, growth, gauges.

The arena contract (:mod:`repro.state`): the column API holds exactly what
a Python dict written the same way would — key-type duality (``7`` vs
``"7"``), insertion-order iteration, and for the score table a key that
leaves and comes back moving to the end — and every positions row is
bit-identical whether it comes from the dense block, a fold-mode
recompute, or ``HashFamily.positions`` directly.  On top of that sit the
scale behaviours the dicts never had: amortised-doubling growth that preserves row identity
under a concurrently ingesting writer, O(1) copy-on-write score checkouts,
and occupancy gauges in the process metrics registry.
"""

from __future__ import annotations

import copy
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.baselines import CSE, VirtualHLL
from repro.core import FreeBS, FreeRS
from repro.core.serialization import dumps, loads
from repro.hashing import HashFamily, fold_key
from repro.monitor.window import WindowedEstimator
from repro.state import DENSE_POSITIONS_LIMIT, FrozenScores, ScoreTable, UserArena, UserInterner
from repro.state.interner import _index_items

_SETTINGS = settings(max_examples=25, deadline=None)


def _arena(m=16, M=1 << 12, **kwargs) -> UserArena:
    family = HashFamily(m, M, seed=7)
    return UserArena(m=m, family=family, **kwargs)


def _put(table: ScoreTable, keys, values) -> np.ndarray:
    """``table[key] = value`` per pair, in order; returns the previous scores."""
    return table.put_many(list(keys), np.asarray(values, dtype=np.float64))[1]


class TestInterner:
    def test_int_and_string_keys_are_distinct_users(self):
        interner = UserInterner()
        assert interner.intern(7) != interner.intern("7")
        assert interner.lookup(7) == 0
        assert interner.lookup("7") == 1
        assert interner.users() == [7, "7"]

    def test_intern_order_is_first_seen_order(self):
        interner = UserInterner()
        keys = [5, "a", (1, 2), b"raw", 5, "a", -3]
        codes = [interner.intern(key) for key in keys]
        assert codes == [0, 1, 2, 3, 0, 1, 4]
        assert interner.users() == [5, "a", (1, 2), b"raw", -3]

    def test_vectorised_lookup_matches_dict_probes(self):
        interner = UserInterner()
        for key in range(0, 1000, 3):
            interner.intern(key)
        probes = np.array([0, 1, 3, 999, 998, -5, 10**6], dtype=np.int64)
        expected = [interner.lookup(int(p)) for p in probes]
        assert interner.lookup_many(probes).tolist() == expected

    def test_folds_match_fold_key(self):
        interner = UserInterner()
        keys = [3, "x", (1, "y"), b"z"]
        codes = np.array([interner.intern(key) for key in keys])
        assert interner.folds(codes).tolist() == [fold_key(key) for key in keys]

    @pytest.mark.parametrize(
        "batches",
        [
            [list(range(10)), [3, 12, 12, 0, 11, 40, 12], list(range(5, 60, 2))],
            [[10**9 * k for k in range(8)], [5, 10**9, 5, 7 * 10**9, 10**12]],
            [[-5, -1, -3, 0, 2, -1], [-(2**63), 2**63 - 1, -5, 7, 7, -(2**63)]],
            [[3], [3, 4], [1, 2, 3, 4], [4, 5, 5], [], [9, 8, 7, 6, 5, 4]],
            [[7, 7, 7, 9, 9, 1], [1, 9, 11, 11, 7, 12, 12], [13, 13, 13, 13, 13, 13]],
            [[1, 2, 3, 4, 5, 6], [True, 1, 7, True, 8, 9], [2, 3, 4, 5, 6, 10]],
            [["a", 1, "a", (2, 3), b"x", 1], [1, "1", (2, 3), 4, 5, 6]],
        ],
        ids=[
            "dense",
            "sparse",
            "negative",
            "at-most-vector-min",
            "misses-repeat",
            "bool-collides-with-1",
            "mixed",
        ],
    )
    @pytest.mark.parametrize("form", ["list", "array", "alternating"])
    def test_intern_many_matches_intern_loop(self, batches, form):
        """Bulk interning assigns the codes, order and folds of one intern() per key.

        Each batch is probed first (so integer batches go through the
        probe index), duplicates inside a batch keep their first position's
        fold, and a bool key still collides with the int 1.  An all-int
        batch goes in as an ``int64`` array in ``array`` form, and every
        other batch does in ``alternating`` form, so an array follows
        keys interned from a list.  Keys keep their Python types, and the
        probe index holds exactly the intern loop's items.
        """
        bulk, loop = UserInterner(), UserInterner()
        for number, batch in enumerate(batches):
            keys = batch
            as_array = form == "array" or (form == "alternating" and number % 2)
            if as_array and all(type(key) is int for key in batch):
                keys = np.array(batch, dtype=np.int64)
            folds = np.array(
                [fold_key(key) ^ position for position, key in enumerate(batch)],
                dtype=np.uint64,
            )
            expected = [loop.intern(key, int(fold)) for key, fold in zip(batch, folds)]
            assert bulk.lookup_many(keys).tolist() == [
                loop.lookup(key) if loop.lookup(key) < len(bulk) else -1 for key in batch
            ]
            assert bulk.intern_many(keys, folds).tolist() == expected
            _assert_same_interner(bulk, loop)

    @_SETTINGS
    @given(
        batches=st.lists(
            st.tuples(
                st.lists(
                    st.one_of(
                        st.integers(-40, 40),
                        st.integers(-(2**63), 2**63 - 1),
                        st.sampled_from(["a", True, 2**64]),
                    ),
                    max_size=12,
                ),
                st.booleans(),
                st.booleans(),
            ),
            max_size=8,
        )
    )
    def test_intern_many_matches_intern_loop_in_any_form(self, batches):
        """Any sequence of batches, each interned from a list or (when all
        plain ints) an ``int64`` array, with or without a prior probe and
        caller folds, leaves the interner one intern() per key leaves."""
        bulk, by_list, loop = UserInterner(), UserInterner(), UserInterner()
        for batch, probe_first, with_folds in batches:
            keys = batch
            if all(type(key) is int and -(2**63) <= key < 2**63 for key in batch):
                keys = np.array(batch, dtype=np.int64)
            folds = None
            if with_folds:
                folds = np.array(
                    [fold_key(key) ^ (position + 1) for position, key in enumerate(batch)],
                    dtype=np.uint64,
                )
            expected = [
                loop.intern(key, None if folds is None else int(folds[position]))
                for position, key in enumerate(batch)
            ]
            if probe_first:
                bulk.lookup_many(keys)
            assert bulk.intern_many(keys, folds).tolist() == expected
            assert by_list.intern_many(list(batch), folds).tolist() == expected
        _assert_same_interner(bulk, loop)
        _assert_same_interner(by_list, loop)


def _assert_same_interner(bulk: UserInterner, loop: UserInterner) -> None:
    """Same keys (types included), folds, int-only flag and probe index items."""
    assert bulk.users() == loop.users()
    assert [type(key) for key in bulk.users()] == [type(key) for key in loop.users()]
    codes = np.arange(len(loop), dtype=np.int64)
    assert bulk.folds(codes).tolist() == loop.folds(codes).tolist()
    assert bulk._int_only == loop._int_only
    index, reference = bulk.int_index(), loop.int_index()
    assert (index is None) == (reference is None)
    if index is not None:
        assert index.size == reference.size == len(loop)
        assert [array.tolist() for array in _index_items(index)] == [
            array.tolist() for array in _index_items(reference)
        ]


class TestArenaPositions:
    @pytest.mark.parametrize("mode", ["dense", "fold"])
    def test_rows_bit_identical_to_family(self, mode):
        # A dense limit below the initial capacity starts in fold mode.
        arena = _arena(dense_limit=DENSE_POSITIONS_LIMIT if mode == "dense" else 0)
        assert arena.positions_mode == mode
        family = arena._family
        users = [1, "u2", (3, 4), b"five", -6]
        codes = arena.intern_many(users)
        rows = arena.positions_rows(codes)
        for user, row in zip(users, rows):
            np.testing.assert_array_equal(row, family.positions(user))
            code = arena.lookup(user)
            np.testing.assert_array_equal(arena.positions_row(code), row)

    def test_auto_switches_dense_to_fold_and_rows_survive(self):
        arena = _arena(dense_limit=64, initial_capacity=8)
        family = arena._family
        users = list(range(200))
        before = {
            user: arena.positions_row(arena.intern(user)).copy() for user in users[:40]
        }
        assert arena.positions_mode == "dense"
        arena.intern_many(users)
        assert arena.positions_mode == "fold"
        for user, row in before.items():
            np.testing.assert_array_equal(
                arena.positions_row(arena.lookup(user)), row
            )
            np.testing.assert_array_equal(row, family.positions(user))

    def test_default_dense_limit_is_above_service_scale(self):
        assert DENSE_POSITIONS_LIMIT == 1 << 17

    def test_growth_preserves_rows_under_background_ingest(self):
        """Doubling growths driven by a background ingest thread (the single
        writer, as under the service's ingest lock) while this thread keeps
        reading: every row captured before any growth must stay bit-identical
        through several doublings (row identity is positional — a grow copies
        columns but never moves a code), and reads racing a block swap see a
        consistent row either way."""
        arena = _arena(initial_capacity=4)
        family = arena._family
        captured = {
            user: arena.positions_row(arena.intern(user)).copy()
            for user in range(16)
        }
        errors = []

        def ingest():
            try:
                for user in range(16, 2000):
                    arena.positions_row(arena.intern(user))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        writer = threading.Thread(target=ingest)
        writer.start()
        codes = np.array([arena.lookup(user) for user in captured], dtype=np.int64)
        while writer.is_alive():
            rows = arena.positions_rows(codes)
            for (_user, row), read in zip(captured.items(), rows):
                np.testing.assert_array_equal(read, row)
        writer.join()
        assert not errors
        assert arena.growth_events > 0
        assert arena.n_users == 2000
        for user, row in captured.items():
            np.testing.assert_array_equal(
                arena.positions_rows(np.array([arena.lookup(user)]))[0], row
            )
            np.testing.assert_array_equal(row, family.positions(user))


class TestEstimateColumnDictParity:
    @_SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["set", "add", "publish", "get"]),
                st.sampled_from([1, 2, "2", (3,), b"b", True]),
                st.floats(0, 100, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_random_op_sequences_match_a_plain_dict(self, ops):
        """Every write an estimator makes, against the dict write it stands for."""
        arena = _arena()
        reference = {}
        for op, key, value in ops:
            if op == "set":
                arena.set_estimate(arena.intern(key), value)
                reference[key] = value
            elif op == "add":
                assert arena.add_estimate(key, value) == reference.get(key, 0.0) + value
                reference[key] = reference.get(key, 0.0) + value
            elif op == "publish":
                arena.publish(arena.intern_many([key]))
                reference.setdefault(key, 0.0)
            else:
                assert arena.estimate_of(key) == reference.get(key, 0.0)
            assert list(arena.estimates_dict().items()) == list(reference.items())
            users, values = arena.estimate_columns()
            assert (users, values.tolist()) == (list(reference), list(reference.values()))

    def test_estimate_column_matches_scalar_reads(self):
        arena = _arena()
        reference = {4: 1.0, 9: 2.0, "9": 3.0, (1, 2): 4.0}
        for user, value in reference.items():
            arena.set_estimate(arena.intern(user), value)
        arena.intern("interned, never published")
        probes = [4, 9, "9", (1, 2), "missing", 123, "interned, never published"]
        expected = [reference.get(user, 0.0) for user in probes]
        assert arena.estimate_column(probes).tolist() == expected
        assert [arena.estimate_of(user) for user in probes] == expected


class TestLoadEstimates:
    """``load_estimates`` is the snapshot-restore seam: the vectorised
    adoption (one ``intern_many`` + column write) must stay exactly
    equivalent to the per-item dict assignment it replaced."""

    def test_adopts_mapping_with_dict_key_semantics_and_order(self):
        arena = _arena()
        mapping = {7: 1.0, "7": 2.0, b"raw": 3.0, ("t", 1): 4.0, -3: 5.0}
        arena.load_estimates(mapping)
        # Intern order == mapping insertion order (restored estimators must
        # keep the snapshot's first-seen order).
        assert list(arena.estimates_dict().items()) == list(mapping.items())

    def test_reload_clears_entries_absent_from_the_new_mapping(self):
        arena = _arena()
        arena.load_estimates({1: 1.0, 2: 2.0, 3: 3.0})
        arena.load_estimates({2: 9.0})
        assert arena.estimates_dict() == {2: 9.0}
        assert arena.estimate_column([1, 2, 3]).tolist() == [0.0, 9.0, 0.0]
        assert [arena.estimate_of(user) for user in (1, 2, 3)] == [0.0, 9.0, 0.0]

    def test_empty_mapping_clears_everything(self):
        arena = _arena()
        arena.load_estimates({4: 4.0, 5: 5.0})
        arena.load_estimates({})
        assert arena.estimates_dict() == {}
        assert arena.estimate_columns()[0] == []

    def test_matches_per_item_view_assignment(self):
        rng = np.random.default_rng(9)
        mapping = {int(user): float(value) for user, value in zip(
            rng.integers(0, 10**12, size=500), rng.random(size=500)
        )}
        loaded, assigned = _arena(), _arena()
        loaded.load_estimates(mapping)
        for user, value in mapping.items():
            assigned.set_estimate(assigned.intern(user), value)
        assert list(loaded.estimates_dict().items()) == list(
            assigned.estimates_dict().items()
        )


class TestEstimatorKeyDuality:
    @pytest.mark.parametrize("factory", [
        lambda: CSE(1 << 12, virtual_size=32, seed=3),
        lambda: VirtualHLL(1 << 11, virtual_size=32, seed=3),
        lambda: FreeBS(1 << 12, seed=3),
        lambda: FreeRS(1 << 10, seed=3),
    ])
    def test_int_7_and_string_7_are_distinct_users(self, factory):
        estimator = factory()
        for item in range(40):
            estimator.update(7, item)
        for item in range(5):
            estimator.update("7", item)
        assert estimator.estimate(7) != estimator.estimate("7")
        assert set(estimator.estimates()) == {7, "7"}
        restored = loads(dumps(estimator))
        assert restored.estimate(7) == estimator.estimate(7)
        assert restored.estimate("7") == estimator.estimate("7")

    @pytest.mark.parametrize("factory", [
        lambda: CSE(1 << 12, virtual_size=32, seed=5),
        lambda: VirtualHLL(1 << 11, virtual_size=32, seed=5),
        lambda: FreeBS(1 << 12, seed=5),
        lambda: FreeRS(1 << 10, seed=5),
    ])
    def test_tuple_and_bytes_keys_survive_snapshot_round_trips(self, factory):
        estimator = factory()
        users = [("src", 1), ("src", 2), b"\x00\xffraw", b"plain", "txt", 42]
        for user in users:
            for item in range(10):
                estimator.update(user, (user, item))
        restored = loads(dumps(estimator))
        assert list(restored.estimates()) == list(estimator.estimates())
        for user in users:
            assert restored.estimate(user) == estimator.estimate(user)
            if hasattr(estimator, "estimate_fresh"):  # CSE/vHLL only
                assert restored.estimate_fresh(user) == estimator.estimate_fresh(user)
        # A second hop must be loss-free too (restore -> dump -> restore).
        twice = loads(dumps(restored))
        assert dict(twice.estimates()) == dict(estimator.estimates())
        # The restored arena keeps answering updates identically.
        follow_up = [(user, ("extra", i)) for user in users for i in range(3)]
        for (user, item), (user2, item2) in zip(follow_up, follow_up):
            assert estimator.update(user, item) == restored.update(user2, item2)


class TestScoreTable:
    @_SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "replace"]),
                st.lists(
                    st.tuples(st.integers(0, 10), st.floats(0, 1000, allow_nan=False)),
                    unique_by=lambda entry: entry[0],
                    max_size=8,
                ),
            ),
            max_size=50,
        )
    )
    def test_matches_dict_semantics_including_reinsert_order(self, ops):
        table = ScoreTable()
        reference = {}
        for op, entries in ops:
            keys = [user for user, _ in entries]
            scores = [score for _, score in entries]
            frozen = table.checkout()
            before = list(table.items())
            if op == "put":
                previous = _put(table, keys, scores)
                assert [None if np.isnan(old) else old for old in previous.tolist()] == [
                    reference.get(user) for user in keys
                ]
                reference.update(entries)
            else:
                table.replace(keys, np.array(scores, dtype=np.float64))
                # Reference: delete absent keys in table order, then set each
                # key; a deleted key that comes back later moves to the end.
                for user in [user for user in reference if user not in keys]:
                    del reference[user]
                reference.update(entries)
            assert list(frozen.items()) == before  # the checkout is isolated
            assert list(table.items()) == list(reference.items())
            assert table.total() == (
                float(np.sum(np.asarray(list(reference.values())))) if reference else 0.0
            )
            expected_top = sorted(reference.items(), key=lambda item: -item[1])[:3]
            assert [
                (table.key_at(code), table.value_at(code)) for code in table.top_codes(3)
            ] == expected_top

    @_SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "replace"]),
                st.lists(
                    st.tuples(st.integers(0, 12), st.floats(0, 1000, allow_nan=False)),
                    unique_by=lambda entry: entry[0],
                    max_size=8,
                ),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_cached_order_survives_inserts(self, ops):
        """Once a replace deletes keys, rank order is not code order; inserts
        by put_many then extend the cached order instead of dropping it.  It
        always equals a fresh argsort by rank, and total() sums in it."""
        table = ScoreTable()
        for op, entries, as_column in ops:
            keys = [user for user, _ in entries]
            values = np.array([score for _, score in entries], dtype=np.float64)
            batch = np.array(keys, dtype=np.int64) if as_column else keys
            if op == "put":
                table.put_many(batch, values)
            else:
                table.replace(batch, values)
            n = len(table._interner)
            present = np.flatnonzero(table._present[:n])
            expected = present[np.argsort(table._rank[present])]
            assert table.ordered_codes().tolist() == expected.tolist()
            total = float(table._values[expected].sum()) if expected.size else 0.0
            assert struct.pack("<d", table.total()) == struct.pack("<d", total)

    def test_top_codes_equal_stable_sort(self):
        table = ScoreTable()
        values = [5.0, 3.0, 5.0, 1.0, 9.0, 3.0]
        _put(table, range(len(values)), values)
        # Users were inserted in key order, so a stable sort breaks ties by rank.
        expected = sorted(table.items(), key=lambda item: -item[1])[:3]
        assert [
            (table.key_at(c), table.value_at(c)) for c in table.top_codes(3)
        ] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        # Few distinct scores, so many codes tie at the k-th score.
        scores=st.lists(st.sampled_from([0.0, 1.0, 2.5, 2.5, 7.0]), min_size=1, max_size=40),
        k=st.integers(1, 50),
        deleted=st.sets(st.integers(0, 39), max_size=10),
    )
    def test_top_codes_equal_the_full_lexsort(self, scores, k, deleted):
        """The partition preselect keeps exactly the full lexsort's codes and
        order: ties at the k-th score, ``k = 1``, ``k >= n``, and a rank
        order that is not code order (a replace that deleted keys, then
        re-inserted them)."""
        table = ScoreTable()
        _put(table, range(len(scores)), scores)
        kept = [key for key in range(len(scores)) if key not in deleted]
        table.replace(kept, np.array([scores[key] for key in kept], dtype=np.float64))
        _put(table, sorted(deleted), [3.0] * len(deleted))
        codes = table.ordered_codes()
        full = np.lexsort((table._rank[codes], -table._values[codes]))
        assert table.top_codes(k) == codes[full][:k].tolist()
        assert table.top_codes(1) == codes[full][:1].tolist()
        assert table.top_codes(len(codes)) == codes[full].tolist()

    def test_threshold_candidates_preserve_insertion_order(self):
        table = ScoreTable()
        _put(table, ["a", "b", "c", "d"], [5.0, 1.0, 7.0, 5.0])
        assert table.threshold_candidates(5.0) == [("a", 5.0), ("c", 7.0), ("d", 5.0)]

    def test_checkout_is_isolated_from_later_writes(self):
        table = ScoreTable()
        _put(table, range(8), range(8))
        frozen = table.checkout()
        expected = dict(table.items())
        _put(table, [3, 100], [99.0, 1.0])
        kept = [user for user in table if user != 5]
        table.replace(kept, np.array([table[user] for user in kept]))
        assert 5 not in table
        assert dict(frozen.items()) == expected
        assert frozen.get(3) == 3.0
        assert frozen.get(100) is None
        assert table[3] == 99.0
        # The integer probe index behind gather_exact persists across
        # checkouts, and the writer extends it as it interns: a checkout
        # taken before a key is interned misses it, even once its code is
        # past the frozen columns, and a later checkout hits it.  Dense ids
        # probe the lookup table (filled in place when the new key fits
        # it); ids 10**6 apart probe sorted arrays.
        for spacing in (1, 10**6):
            table = ScoreTable()
            ids = [spacing * user for user in range(8)]
            _put(table, ids, ids)
            before = table.checkout()
            assert before.gather_exact(ids) == [float(user) for user in ids]
            late = [spacing * user for user in range(100, 300)]
            table.put_many(late, np.arange(100.0, 300.0))
            assert before.gather_exact([100 * spacing]) is None
            assert before.gather_exact([299 * spacing]) is None
            after = table.checkout()
            index = table._interner.published_int_index()
            assert (index.table is not None) == (spacing == 1)
            assert after.gather_exact([100 * spacing, 299 * spacing]) == [100.0, 299.0]
            assert before.gather_exact(ids + [100 * spacing]) is None
            _put(table, [350 * spacing], [8.0])
            latest = table.checkout()
            if spacing == 1:
                assert table._interner.published_int_index().table is index.table
            assert after.gather_exact([350 * spacing]) is None
            assert latest.gather_exact([350 * spacing, 100 * spacing]) == [8.0, 100.0]
        # Non-int keys keep the dict path.
        table = ScoreTable()
        _put(table, ["a", ("t", 1)], [1.0, 2.0])
        frozen = table.checkout()
        assert table._interner.published_int_index() is None
        assert frozen.gather_exact(["a", ("t", 1)]) == [1.0, 2.0]
        _put(table, ["b"], [3.0])
        assert frozen.gather_exact(["b"]) is None
        assert table.checkout().gather_exact(["b", "a"]) == [3.0, 1.0]

    def test_checkout_survives_concurrent_writer(self):
        table = ScoreTable()
        _put(table, range(64), range(64))
        frozen = table.checkout()
        expected = [float(user) for user in range(64)]
        stop = threading.Event()
        errors = []

        def writer():
            user = 64
            try:
                while not stop.is_set():
                    _put(table, [user, user % 64], [user, user])
                    user += 1
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                assert frozen.gather_exact(list(range(64))) == expected
        finally:
            stop.set()
            thread.join()
        assert not errors

    @pytest.mark.parametrize("spacing", [1, 10**6], ids=["dense-table", "sorted-arrays"])
    def test_probe_index_grows_under_concurrent_readers(self, spacing):
        """Readers probe published checkouts while the writer keeps interning.

        The writer's put_many extends the shared probe index (in-place
        fills, regrown tables, re-merged sorted arrays) and publishes a
        checkout after each call; every checkout a reader holds must keep
        answering with exactly the keys and scores it froze.
        """
        self._grow_under_readers(spacing, column=False)

    @pytest.mark.parametrize("spacing", [1, 10**6], ids=["dense-table", "sorted-arrays"])
    def test_probe_index_grows_from_columns_under_concurrent_readers(self, spacing):
        """As above, with ``int64`` columns: put_many extends the probe index
        as it interns, not at the next checkout."""
        self._grow_under_readers(spacing, column=True)

    @staticmethod
    def _grow_under_readers(spacing: int, column: bool) -> None:
        import sys

        table = ScoreTable()
        first = [spacing * key for key in range(0, 256, 2)]
        table.put_many(first, np.array(first, dtype=np.float64))
        published = [(table.checkout(), first)]
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    frozen, keys = published[-1]
                    assert frozen.gather_exact(keys) == [float(key) for key in keys]
                    oldest, oldest_keys = published[0]
                    assert oldest.gather_exact(oldest_keys) == [
                        float(key) for key in oldest_keys
                    ]
                    # Keys interned after the first checkout read as misses.
                    assert oldest.gather_exact([spacing]) is None
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in readers:
                thread.start()
            keys = list(first)
            for start in range(1, 10_000, 37):
                batch = [spacing * key for key in range(start, start + 50)]
                keys_in = np.array(batch, dtype=np.int64) if column else batch
                table.put_many(keys_in, np.array(batch, dtype=np.float64))
                keys = list(dict.fromkeys(keys + batch))
                published.append((table.checkout(), keys))
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        frozen, keys = published[-1]
        assert frozen.gather_exact(keys) == [float(key) for key in keys]

    def test_gather_exact_miss_returns_none(self):
        table = ScoreTable()
        _put(table, [1, 2], [1.0, 2.0])
        frozen = table.checkout()
        assert frozen.gather_exact([1, 2]) == [1.0, 2.0]
        assert frozen.gather_exact([1, 3]) is None
        assert frozen.gather_exact([1, "1"]) is None
        assert isinstance(frozen, FrozenScores)


class TestArenaLifecycle:
    def test_deepcopy_and_pickle_round_trip(self):
        import pickle

        arena = _arena()
        for user in [1, "two", (3,), b"four"]:
            arena.set_estimate(arena.intern(user), float(len(str(user))))
        for restored in (copy.deepcopy(arena), pickle.loads(pickle.dumps(arena))):
            assert restored.estimates_dict() == arena.estimates_dict()
            assert restored.users() == arena.users()
            np.testing.assert_array_equal(
                restored.positions_row(0), arena.positions_row(0)
            )

    def test_occupancy_gauges_track_population_and_release(self, monkeypatch):
        import gc

        users_gauge = obs.gauge("state.arena.users", owner="gauge-test")
        bytes_gauge = obs.gauge("state.arena.bytes", owner="gauge-test")
        base_users, base_bytes = users_gauge.value, bytes_gauge.value
        arena = _arena(owner="gauge-test", initial_capacity=4)
        # The gauges are resolved once, at construction: interning never
        # looks an instrument up by name.
        lookups = []
        resolve = obs.gauge
        monkeypatch.setattr(
            obs, "gauge", lambda *args, **kwargs: lookups.append(args) or resolve(*args, **kwargs)
        )
        arena.intern_many(list(range(100)))
        for user in range(100, 1_000):
            arena.intern(user)
        assert lookups == []
        monkeypatch.undo()
        assert users_gauge.value == base_users + 1_000
        assert bytes_gauge.value > base_bytes
        assert arena.stats()["users"] == 1_000
        assert arena.stats()["resident_bytes"] > 0
        del arena
        gc.collect()
        assert users_gauge.value == base_users
        # FreeBS epochs keep their running estimates on arenas too: the
        # users of an epoch that rotates out leave the gauge with it.
        freebs_users = obs.gauge("state.arena.users", owner="FreeBS")
        gc.collect()
        base_users = freebs_users.value
        window = WindowedEstimator(
            lambda _index: FreeBS(1 << 12, seed=1), epoch_pairs=300, window_epochs=2
        )
        for start in range(0, 3_000, 100):
            window.ingest([(start // 7 + offset % 41, offset) for offset in range(100)])
            gc.collect()
            retained = sum(len(epoch.estimates()) for epoch in window.epochs)
            assert freebs_users.value == base_users + retained
        assert window.epochs_started > 2
        del window
        gc.collect()
        assert freebs_users.value == base_users

    def test_growth_events_counter_increments(self):
        counter = obs.counter("state.arena.growth_events", owner="growth-test")
        before = counter.value
        arena = _arena(owner="growth-test", initial_capacity=2)
        arena.intern_many(list(range(50)))
        assert arena.growth_events > 0
        assert counter.value == before + arena.growth_events
