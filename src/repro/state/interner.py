"""Dense user-key interning: arbitrary hashable keys -> stable small ints.

Every columnar structure in :mod:`repro.state` addresses per-user data by a
dense integer *code* instead of a dict key.  The interner owns that mapping:

* codes are assigned sequentially at first sight, so **intern order equals
  dict insertion order** — the canonical first-seen order every ranking and
  tie-break in this repository is defined over;
* codes are permanent: a user never changes or loses its code (deletion is a
  column-level concern — a ``present`` flag — not an interner concern);
* key-type duality is preserved exactly as a Python dict would: ``7`` and
  ``"7"`` are distinct users, ``True`` and ``1`` collide (they are equal and
  hash equal), tuples and bytes are first-class keys.

For the virtual-sketch methods the interner also stores each key's 64-bit
fold (:func:`repro.hashing.fold_key`) in a flat ``uint64`` column, so a
user's sketch positions stay recomputable without the key object in hand —
``HashFamily.positions_from_hashes(fold)`` is bit-identical to
``HashFamily.positions(key)`` by the hashing layer's contract.

Pure-int key populations additionally get a sorted lookup index
(``np.searchsorted``) built lazily and invalidated on intern, which turns a
batch membership probe into one vectorised binary search instead of one dict
hop per user.
"""

from __future__ import annotations

from collections.abc import Sequence


import numpy as np

from repro.hashing import fold_key

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class UserInterner:
    """Append-only key <-> dense-code mapping with optional fold storage."""

    __slots__ = (
        "_codes",
        "_keys",
        "_folds",
        "_track_folds",
        "_int_only",
        "_index_keys",
        "_index_codes",
        "_index_size",
    )

    def __init__(self, track_folds: bool = True, initial_capacity: int = 64) -> None:
        self._codes: dict[object, int] = {}
        self._keys: list[object] = []
        self._track_folds = track_folds
        self._folds: np.ndarray | None = (
            np.zeros(max(1, initial_capacity), dtype=np.uint64) if track_folds else None
        )
        #: True while every interned key is a plain int64-range int (the only
        #: population the sorted lookup index can represent losslessly).
        self._int_only = True
        self._index_keys: np.ndarray | None = None
        self._index_codes: np.ndarray | None = None
        self._index_size = 0

    # -- size / enumeration ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._codes

    @property
    def keys(self) -> list[object]:
        """The live key list, index == code.  Append-only; do not mutate."""
        return self._keys

    def key_at(self, code: int) -> object:
        return self._keys[code]

    def users(self) -> list[object]:
        """A fresh list of all keys in intern (first-seen) order."""
        return list(self._keys)

    # -- interning --------------------------------------------------------------

    def intern(self, key: object, fold: int | None = None) -> int:
        """Return the code of ``key``, assigning the next dense code if new."""
        code = self._codes.get(key)
        if code is not None:
            return code
        code = len(self._keys)
        self._codes[key] = code
        self._keys.append(key)
        if self._track_folds:
            folds = self._folds
            assert folds is not None
            if code >= folds.size:
                grown = np.zeros(folds.size * 2, dtype=np.uint64)
                grown[: folds.size] = folds
                self._folds = folds = grown
            folds[code] = fold if fold is not None else fold_key(key)
        if self._int_only and not (
            type(key) is int and _INT64_MIN <= key <= _INT64_MAX
        ):
            self._int_only = False
        return code

    def intern_many(
        self, keys: Sequence[object], folds: np.ndarray | None = None
    ) -> np.ndarray:
        """Intern a batch of keys; returns their codes as an ``int64`` array.

        ``folds`` — when the caller already holds the keys' 64-bit folds
        (:attr:`EncodedBatch.user_hashes` is exactly that, aligned with
        ``batch.users``) — skips recomputing ``fold_key`` per new key.

        Known keys resolve in one C-level ``map`` over the dict; only the
        misses take the Python-level :meth:`intern`, left to right, so new
        codes follow first appearance exactly as before.
        """
        codes = list(map(self._codes.get, keys))
        if None in codes:
            position = codes.index(None)
            while True:
                fold = None if folds is None else int(folds[position])
                codes[position] = self.intern(keys[position], fold)
                try:
                    position = codes.index(None, position + 1)
                except ValueError:
                    break
        return np.fromiter(codes, dtype=np.int64, count=len(codes))

    # -- lookup ------------------------------------------------------------------

    def lookup(self, key: object) -> int:
        """Code of ``key``, or -1 if never interned."""
        code = self._codes.get(key)
        return -1 if code is None else code

    def lookup_many(self, keys: Sequence[object]) -> np.ndarray:
        """Codes of a batch of keys (-1 for unknown), vectorised when possible.

        A pure-int interned population probed with an integer array resolves
        through one sorted binary search; everything else falls back to one
        dict probe per key — both produce identical codes.
        """
        if self._int_only and len(self._keys) > 0 and len(keys) > 4:
            arr = self._as_int64(keys)
            if arr is not None:
                index_keys, index_codes = self._int_index()
                if index_keys is not None and index_codes is not None:
                    pos = np.searchsorted(index_keys, arr)
                    pos_clipped = np.minimum(pos, index_keys.size - 1)
                    found = index_keys[pos_clipped] == arr
                    return np.where(found, index_codes[pos_clipped], -1)
        get = self._codes.get
        return np.array([get(key, -1) for key in keys], dtype=np.int64)

    def folds(self, codes: np.ndarray) -> np.ndarray:
        """Fold column gather (requires ``track_folds=True``)."""
        assert self._folds is not None, "interner built with track_folds=False"
        return self._folds[codes]

    # -- int fast-path plumbing ---------------------------------------------------

    @staticmethod
    def _as_int64(keys: Sequence[object]) -> np.ndarray | None:
        """Coerce a probe batch to int64 losslessly, or return None."""
        arr = keys if isinstance(keys, np.ndarray) else np.asarray(keys)
        kind = arr.dtype.kind
        if kind == "i":
            return arr.astype(np.int64, copy=False)
        if kind == "u":
            if arr.size and int(arr.max()) > _INT64_MAX:
                return None
            return arr.astype(np.int64)
        return None

    def _int_index(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The (sorted keys, codes) probe index, rebuilt lazily after interns."""
        if self._index_size != len(self._keys):
            try:
                keys_arr = np.fromiter(
                    self._keys, dtype=np.int64, count=len(self._keys)
                )
            except (TypeError, ValueError, OverflowError):
                self._int_only = False
                self._index_keys = self._index_codes = None
                return None, None
            order = np.argsort(keys_arr)
            self._index_keys = keys_arr[order]
            self._index_codes = order.astype(np.int64)
            self._index_size = len(self._keys)
        return self._index_keys, self._index_codes

    # -- accounting ---------------------------------------------------------------

    def resident_bytes(self) -> int:
        """Approximate resident footprint: dict + key list + key objects + folds."""
        import sys

        total = sys.getsizeof(self._codes) + sys.getsizeof(self._keys)
        total += sum(sys.getsizeof(key) for key in self._keys)
        if self._folds is not None:
            total += self._folds.nbytes
        if self._index_keys is not None and self._index_codes is not None:
            total += self._index_keys.nbytes + self._index_codes.nbytes
        return total
