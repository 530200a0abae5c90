"""The engine's shared hash/encode pipeline.

Every estimator in this library ultimately consumes the same three hash
quantities per arriving (user, item) pair:

* a 64-bit fold of the *user* (CSE/vHLL derive the virtual-sketch positions
  from it, the sharding layer derives the shard id from it),
* a 64-bit fold of the *item* (CSE/vHLL derive the bucket and rank from it,
  the per-user baselines feed it to the private sketches),
* a seed-independent 64-bit *pair key* (FreeBS/FreeRS hash the pair as a
  whole; duplicate pairs must collide).

:class:`EncodedBatch` computes the folds once per batch and derives
everything else lazily, so one encoded batch can be replayed through any
number of estimators with any seeds — this generalises the original
``encode_int_pairs`` fast path (which only produced pair keys, and therefore
could only feed FreeBS/FreeRS) to the whole method zoo.

All folds go through :func:`repro.hashing.fold_key` /
:func:`repro.hashing.fold_key_array`, which agree bit-for-bit with the scalar
estimators' hashing for every key type, including negative and ``>= 2**63``
integer ids.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from dataclasses import dataclass, field

import numpy as np

from repro.hashing import MASK64, fold_key, fold_key_array, splitmix64, splitmix64_array
from repro.hashing.mix import _GOLDEN_GAMMA, all_int64

UserItemPair = tuple[object, object]

_GAMMA64 = np.uint64(_GOLDEN_GAMMA)


def _as_exact_array(values: Sequence[object] | np.ndarray, name: str) -> np.ndarray:
    """Coerce encoder input to an array without losing integer precision.

    ``np.asarray`` turns a Python list that mixes negative ids with ids
    ``>= 2**63`` into ``float64`` — silently rounding distinct 64-bit ids
    onto each other.  Lists/tuples that coerce to an inexact dtype are
    rebuilt as ``object`` arrays (lossless, folded per element); float
    *arrays* are rejected because the damage already happened upstream.
    """
    array = np.asarray(values)
    if array.dtype.kind in "iuO":
        return array
    if not isinstance(values, np.ndarray):
        return np.array(list(values), dtype=object)
    raise TypeError(
        f"{name} must be an integer or object array, got dtype {array.dtype}; "
        "float dtypes cannot represent 64-bit ids exactly"
    )


def _first_seen_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values`` in first-seen order, and each value's code.

    ``codes[k]`` indexes the returned uniques, so ``uniques[codes]`` equals
    ``values``: the dense numbering a dict built in arrival order gives.
    """
    uniques, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    return uniques[order], rank[inverse.reshape(-1)]


def _int64_column(users: list[object]) -> np.ndarray | None:
    """``users`` as an ``int64`` column, or None unless every user is a plain
    int in the int64 range (:func:`~repro.hashing.mix.all_int64`)."""
    return np.array(users, dtype=np.int64) if all_int64(users) else None


def seed_mix(seed: int) -> np.uint64:
    """Return ``splitmix64(seed)`` as a ``uint64`` scalar (hash-seed premix).

    ``hash64(key, seed)`` and ``hash_pair(user, item, seed)`` both mix their
    key with ``splitmix64(seed & MASK64)``; pre-computing that constant keeps
    the vectorised paths down to a single xor + mix per element.
    """
    return np.uint64(splitmix64(seed & MASK64))


@dataclass
class EncodedBatch:
    """A batch of (user, item) pairs folded to integer arrays.

    Attributes
    ----------
    user_codes:
        ``int64`` array, one dense user code per pair (``users[code]`` is the
        original user object).
    user_hashes:
        ``uint64`` array, one raw 64-bit fold per *unique* user, aligned with
        ``users``.
    item_hashes:
        ``uint64`` array, one raw 64-bit item fold per pair.
    users:
        List mapping user codes back to the original user objects.
    user_column:
        ``int64`` array aligned with ``users`` when every user is a plain
        ``int`` (not bool) in the int64 range, else None.  Both constructors
        fill it under that rule, and :meth:`subset` gathers it (or applies
        the rule to a part of a batch without one), so an integer batch
        reaches the interners and the score table as one column
        (:meth:`user_keys`); ``users`` stays the list of Python objects that
        alerts, ``decode_table`` and the per-user baselines read.
    """

    user_codes: np.ndarray
    user_hashes: np.ndarray
    item_hashes: np.ndarray
    users: list[object]
    user_column: np.ndarray | None = field(default=None, repr=False, compare=False)
    _pair_keys: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.user_codes.shape[0])

    @property
    def n_users(self) -> int:
        """Number of distinct users in the batch."""
        return len(self.users)

    def user_keys(self) -> list[object] | np.ndarray:
        """The batch's users as the interners take them: the ``int64``
        :attr:`user_column` when there is one, else the ``users`` list."""
        return self.users if self.user_column is None else self.user_column

    def pair_keys(self) -> np.ndarray:
        """Seed-independent 64-bit pair keys, equal to ``pair_key(u, i)``.

        Computed lazily and cached: FreeBS/FreeRS need them, CSE/vHLL and the
        per-user baselines do not.
        """
        if self._pair_keys is None:
            user_folds = self.user_hashes[self.user_codes]
            self._pair_keys = splitmix64_array(user_folds ^ _GAMMA64) ^ splitmix64_array(
                self.item_hashes
            )
        return self._pair_keys

    def item_hashes_with_seed(self, seed: int) -> np.ndarray:
        """Per-pair ``hash64(item, seed)`` values (the item-hash hot path)."""
        return splitmix64_array(self.item_hashes ^ seed_mix(seed))

    def decode_table(self) -> dict[int, object]:
        """Return the legacy ``{code: user}`` decode dict."""
        return dict(enumerate(self.users))

    def subset(self, mask: np.ndarray | slice) -> EncodedBatch:
        """Return a new batch containing only the pairs selected by ``mask``.

        ``mask`` is a boolean mask or a slice.  The selected pairs keep
        their relative order (and therefore every arrival-order-dependent
        estimate), and their users are re-densified in the part's own
        first-seen order, so ``subset(slice(a, b))`` equals
        :meth:`from_pairs` of pairs ``a:b`` field for field.  Used by the
        sharding layer to split one encoded batch across shards, and by the
        monitor's window to split one at an epoch rotation.
        """
        parent_codes, part_codes = _first_seen_codes(self.user_codes[mask])
        users = [self.users[code] for code in parent_codes.tolist()]
        column = self.user_column
        return EncodedBatch(
            user_codes=part_codes,
            user_hashes=self.user_hashes[parent_codes],
            item_hashes=self.item_hashes[mask],
            users=users,
            # A part may fit int64 where its parent does not.
            user_column=_int64_column(users) if column is None else column[parent_codes],
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence[UserItemPair]) -> EncodedBatch:
        """Encode arbitrary (user, item) pairs (one scalar fold per element)."""
        users: list[object] = []
        codes_of: dict[object, int] = {}
        user_folds: list[int] = []
        codes: list[int] = []
        item_folds: list[int] = []
        for user, item in pairs:
            code = codes_of.get(user)
            if code is None:
                code = len(users)
                codes_of[user] = code
                users.append(user)
                user_folds.append(fold_key(user))
            codes.append(code)
            item_folds.append(fold_key(item))
        return cls(
            user_codes=np.asarray(codes, dtype=np.int64),
            user_hashes=np.asarray(user_folds, dtype=np.uint64),
            item_hashes=np.asarray(item_folds, dtype=np.uint64),
            users=users,
            user_column=_int64_column(users),
        )

    @classmethod
    def from_int_arrays(cls, users: np.ndarray, items: np.ndarray) -> EncodedBatch:
        """Vectorised encoding for streams of integer users and items.

        Users are listed in first-seen order, as :meth:`from_pairs` lists
        them, and are Python ints (a ``bool`` in an ``object`` array stays a
        bool): the result equals ``from_pairs`` of the same pairs field for
        field.  Accepts signed, unsigned and ``object`` (big Python int)
        arrays; the
        folds match the scalar path for every representable id, including
        negative and ``>= 2**63`` values (see :func:`repro.hashing.fold_key_array`).
        Float arrays are rejected: they cannot represent 64-bit ids exactly,
        and silently folding them would merge distinct users.
        """
        users = _as_exact_array(users, "users")
        items = _as_exact_array(items, "items")
        if users.shape != items.shape:
            raise ValueError("users and items must have the same length")
        if users.ndim != 1:
            raise ValueError("users and items must be one-dimensional")
        item_folds = fold_key_array(items)
        unique_users, codes = _first_seen_codes(users)
        keys = unique_users.tolist()
        if unique_users.dtype.kind == "O":
            # numpy integers become Python ints; a bool stays the object
            # given, as from_pairs keeps it (and so keeps the batch off the
            # int64 column).
            keys = [key if isinstance(key, (bool, np.bool_)) else int(key) for key in keys]
        return cls(
            user_codes=codes,
            user_hashes=fold_key_array(unique_users),
            item_hashes=item_folds,
            users=keys,
            user_column=(
                unique_users.astype(np.int64, copy=False)
                if unique_users.dtype.kind == "i"
                else _int64_column(keys)
            ),
        )


def encode_pairs(
    pairs: Iterable[UserItemPair],
) -> tuple[np.ndarray, np.ndarray, dict[int, object]]:
    """Encode arbitrary (user, item) pairs into integer arrays for batch APIs.

    Tuple-shaped API: returns ``(user_codes, pair_hash_keys, decode_table)``.
    Estimators take :meth:`EncodedBatch.from_pairs`, which also carries the
    separate user/item folds they need.
    """
    batch = EncodedBatch.from_pairs(list(pairs))
    return batch.user_codes, batch.pair_keys(), batch.decode_table()


def encode_int_pairs(
    users: np.ndarray, items: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[int, object]]:
    """Vectorised :func:`encode_pairs` for streams of integer users and items.

    Produces exactly the same keys as the scalar path (``pair_key(u, i)``)
    for the full integer range — negative ids and ids ``>= 2**63`` included —
    without a Python-level loop for fixed-width dtypes.  The decode table maps
    each user code to the original integer user id.
    """
    batch = EncodedBatch.from_int_arrays(users, items)
    return batch.user_codes, batch.pair_keys(), batch.decode_table()
