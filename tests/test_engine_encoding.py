"""Tests for the engine's shared hash/encode pipeline.

The pipeline's contract is that every quantity it derives — folds, pair
keys, item hashes — agrees bit-for-bit with the scalar hashing the
estimators use, for *every* key the scalar path accepts.  The edge cases
exercised here (negative ids, ids at and above 2**63, arbitrarily large
Python ints) are exactly the ones the original ``astype(np.uint64)`` cast
got wrong for ``object`` arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FreeBS
from repro.engine import EncodedBatch, encode_int_pairs, encode_pairs
from repro.hashing import fold_key, fold_key_array, hash64, pair_key

EDGE_IDS = [
    0,
    1,
    -1,
    -(2**31),
    2**31,
    2**62,
    2**63 - 1,
    2**63,
    2**64 - 1,
]


class TestFoldKeyArray:
    def test_matches_scalar_for_signed_dtypes(self):
        values = np.array([0, 1, -1, -(2**63), 2**62, -17], dtype=np.int64)
        expected = [fold_key(int(v)) for v in values]
        assert fold_key_array(values).tolist() == expected

    def test_matches_scalar_for_unsigned_dtypes(self):
        values = np.array([0, 2**63, 2**64 - 1, 12345], dtype=np.uint64)
        expected = [fold_key(int(v)) for v in values]
        assert fold_key_array(values).tolist() == expected

    def test_matches_scalar_for_object_arrays(self):
        # A mix of negative and >= 2**63 values cannot be represented in any
        # fixed-width numpy dtype; it must still fold like the scalar path.
        values = np.array([-1, 2**63, -(2**70), 2**100, 5], dtype=object)
        expected = [fold_key(v) for v in values.tolist()]
        assert fold_key_array(values).tolist() == expected

    def test_matches_scalar_for_small_signed_dtypes(self):
        values = np.array([-1, -128, 127, 0], dtype=np.int8)
        expected = [fold_key(int(v)) for v in values]
        assert fold_key_array(values).tolist() == expected


class TestEncodeIntPairsEdgeIds:
    """Regression tests for the `astype(np.uint64)` edge (satellite task)."""

    @pytest.mark.parametrize(
        "dtype",
        [np.int64, np.uint64, object],
        ids=["int64", "uint64", "object"],
    )
    def test_keys_match_scalar_pair_key(self, dtype):
        if dtype is np.int64:
            ids = [v for v in EDGE_IDS if -(2**63) <= v < 2**63]
        elif dtype is np.uint64:
            ids = [v for v in EDGE_IDS if 0 <= v < 2**64]
        else:
            ids = EDGE_IDS + [-(2**70), 2**100]
        users = np.array(ids, dtype=dtype)
        items = np.array(list(reversed(ids)), dtype=dtype)
        codes, keys, decode = encode_int_pairs(users, items)
        expected = [pair_key(int(u), int(i)) for u, i in zip(users, items)]
        assert keys.tolist() == expected
        for position, user in enumerate(users):
            assert decode[int(codes[position])] == int(user)

    def test_negative_ids_round_trip_through_freebs(self):
        users = np.array([-1, -2, -1, -(2**40), 3], dtype=np.int64)
        items = np.array([10, 20, 10, -30, 2**62], dtype=np.int64)
        scalar = FreeBS(1 << 12, seed=4)
        batch = FreeBS(1 << 12, seed=4)
        for user, item in zip(users.tolist(), items.tolist()):
            scalar.update(user, item)
        batch.update_encoded(EncodedBatch.from_int_arrays(users, items))
        assert batch.estimates() == scalar.estimates()

    def test_huge_ids_round_trip_through_freebs(self):
        users = np.array([2**63, -1, 2**100, 2**63], dtype=object)
        items = np.array([1, 2, 3, 4], dtype=object)
        scalar = FreeBS(1 << 12, seed=4)
        batch = FreeBS(1 << 12, seed=4)
        for user, item in zip(users.tolist(), items.tolist()):
            scalar.update(user, item)
        batch.update_encoded(EncodedBatch.from_int_arrays(users, items))
        assert batch.estimates() == scalar.estimates()

    def test_mixed_range_python_lists_are_not_float_coerced(self):
        # np.asarray turns this mix into float64, which would silently merge
        # the two huge ids; the encoder must keep them exact.
        users = [-1, 2**63 + 1, 2**63 + 3]
        items = [10, 11, 12]
        batch = EncodedBatch.from_int_arrays(users, items)
        assert batch.n_users == 3
        expected = [pair_key(u, i) for u, i in zip(users, items)]
        assert batch.pair_keys().tolist() == expected

    def test_rejects_float_arrays(self):
        with pytest.raises(TypeError, match="float"):
            EncodedBatch.from_int_arrays(
                np.array([1.0, 2.0]), np.array([1, 2], dtype=np.int64)
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            encode_int_pairs(np.array([1, 2]), np.array([1]))

    def test_rejects_multidimensional_input(self):
        with pytest.raises(ValueError):
            encode_int_pairs(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64))


def _assert_same_batch(actual: EncodedBatch, expected: EncodedBatch) -> None:
    """Field-for-field equality, dtypes and user key types included."""
    assert actual.users == expected.users
    assert [type(user) for user in actual.users] == [type(user) for user in expected.users]
    for name in ("user_codes", "user_hashes", "item_hashes"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tolist() == want.tolist(), name
    assert actual.pair_keys().tolist() == expected.pair_keys().tolist()
    _assert_user_keys(actual)
    _assert_user_keys(expected)
    assert (actual.user_column is None) == (expected.user_column is None)


def _assert_user_keys(batch: EncodedBatch) -> None:
    """``user_keys()`` is the ``int64`` column exactly when every user is a
    plain int64 ``int``, and holds the users' values either way."""
    keys = batch.user_keys()
    if all(type(user) is int and -(2**63) <= user < 2**63 for user in batch.users):
        assert isinstance(keys, np.ndarray) and keys.dtype == np.int64
        assert keys.tolist() == batch.users
    else:
        assert keys is batch.users and batch.user_column is None


class TestEncodedBatch:
    def test_from_pairs_matches_from_int_arrays(self):
        users = np.array([5, 2, 5, 9, 2], dtype=np.int64)
        items = np.array([1, 1, 2, 3, 1], dtype=np.int64)
        from_arrays = EncodedBatch.from_int_arrays(users, items)
        from_pairs = EncodedBatch.from_pairs(list(zip(users.tolist(), items.tolist())))
        # Same numbering (first-seen), same folds, Python int keys.
        assert from_arrays.users == [5, 2, 9]
        _assert_same_batch(from_arrays, from_pairs)

    def test_subset_lists_the_part_users_first_seen(self):
        """Parent users [A, B]; the part B, A lists [B, A], not the
        parent's order."""
        pairs = [("A", 1), ("B", 2), ("A", 3)]
        part = EncodedBatch.from_pairs(pairs).subset(slice(1, 3))
        assert part.users == ["B", "A"]
        _assert_same_batch(part, EncodedBatch.from_pairs(pairs[1:3]))

    def test_item_hashes_with_seed_matches_hash64(self):
        pairs = [("alice", "x"), ("bob", 42), ("alice", (1, 2))]
        batch = EncodedBatch.from_pairs(pairs)
        for position, (_, item) in enumerate(pairs):
            assert int(batch.item_hashes_with_seed(0xD1)[position]) == hash64(item, seed=0xD1)

    def test_subset_preserves_order_and_remaps_codes(self):
        pairs = [(u, i) for u in range(6) for i in range(3)]
        batch = EncodedBatch.from_pairs(pairs)
        mask = np.asarray([user % 2 == 0 for user, _ in pairs])
        sub = batch.subset(mask)
        kept = [pair for pair, keep in zip(pairs, mask) if keep]
        assert len(sub) == len(kept)
        assert sub.pair_keys().tolist() == [
            key for key, keep in zip(batch.pair_keys().tolist(), mask) if keep
        ]
        for position, (user, _) in enumerate(kept):
            assert sub.users[int(sub.user_codes[position])] == user

    @pytest.mark.parametrize(
        "users",
        [
            np.array([5, 2**63, 5], dtype=np.uint64),
            np.array([-1, 2**63, -1], dtype=object),
        ],
        ids=["uint64-beyond-int64", "object-negative-and-beyond-int64"],
    )
    def test_user_keys_is_the_list_beyond_int64(self, users):
        items = np.arange(users.size, dtype=np.int64)
        for batch in (
            EncodedBatch.from_int_arrays(users, items),
            EncodedBatch.from_pairs(list(zip(users.tolist(), items.tolist()))),
        ):
            assert batch.user_column is None
            assert batch.user_keys() is batch.users
            assert batch.subset(slice(0, 2)).user_keys() == batch.users[:2]
            # A part that fits int64 carries the column, as from_pairs of it would.
            assert batch.subset(slice(0, 1)).user_keys().tolist() == batch.users[:1]

    def test_user_keys_is_the_list_with_a_bool_user(self):
        batch = EncodedBatch.from_pairs([(3, 1), (True, 2), (4, 3)])
        assert batch.user_keys() == [3, True, 4]
        assert batch.subset(slice(1, 3)).user_keys() == [True, 4]
        assert batch.subset(slice(0, 1)).user_keys().tolist() == [3]

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, object])
    def test_user_keys_is_the_column_for_every_int64_id(self, dtype):
        users = np.array([7, 0, 2**31 - 1, 7], dtype=dtype)
        batch = EncodedBatch.from_int_arrays(users, np.arange(4))
        assert batch.user_keys().dtype == np.int64
        assert batch.user_keys().tolist() == batch.users == [7, 0, 2**31 - 1]

    def test_legacy_encode_pairs_shape(self):
        pairs = [("alice", "x"), ("bob", "y"), ("alice", "x")]
        codes, keys, decode = encode_pairs(pairs)
        assert keys.tolist() == [pair_key(u, i) for u, i in pairs]
        assert decode[int(codes[0])] == "alice"
        assert codes[0] == codes[2]


_ID_RANGES = {
    "int64": (np.int64, st.integers(-(2**63), 2**63 - 1)),
    "uint64": (np.uint64, st.integers(0, 2**64 - 1)),
    # Negative ids beside ids >= 2**63: no fixed-width dtype holds both.
    "object": (object, st.integers(-(2**80), 2**80)),
}


class TestFromIntArraysContract:
    """``from_int_arrays`` is ``from_pairs`` of the same pairs, field for
    field (``user_keys()`` included), and so is every rotation split of a
    batch."""

    @pytest.mark.parametrize("kind", list(_ID_RANGES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_from_pairs_and_every_split_does(self, kind, data):
        dtype, ids = _ID_RANGES[kind]
        # Few distinct users, so users recur and first-seen order matters.
        pool = data.draw(st.lists(ids, min_size=1, max_size=6, unique=True))
        users = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=30))
        items = data.draw(st.lists(ids, min_size=len(users), max_size=len(users)))
        pairs = list(zip(users, items))
        batch = EncodedBatch.from_int_arrays(
            np.array(users, dtype=dtype), np.array(items, dtype=dtype)
        )
        _assert_same_batch(batch, EncodedBatch.from_pairs(pairs))
        for start in range(len(pairs) + 1):
            for stop in range(start, len(pairs) + 1):
                _assert_same_batch(
                    batch.subset(slice(start, stop)),
                    EncodedBatch.from_pairs(pairs[start:stop]),
                )

    @pytest.mark.parametrize(
        "users", [[True, 5, True], [True, 1]], ids=["bool-int-bool", "bool-then-equal-int"]
    )
    def test_a_bool_user_stays_the_object_given(self, users):
        """An ``object`` array's bool is listed as the bool, as ``from_pairs``
        lists it, and the batch carries no ``int64`` column.  ``1 == True``,
        so ``[True, 1]`` is one user, the first one seen."""
        items = list(range(len(users)))
        pairs = list(zip(users, items))
        batch = EncodedBatch.from_int_arrays(np.array(users, dtype=object), np.array(items))
        expected = EncodedBatch.from_pairs(pairs)
        _assert_same_batch(batch, expected)
        assert batch.users[0] is True
        assert batch.user_column is None
        for start in range(len(pairs) + 1):
            for stop in range(start, len(pairs) + 1):
                part = slice(start, stop)
                _assert_same_batch(batch.subset(part), expected.subset(part))
