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

Pure-int key populations also get an integer probe index
(:class:`IntIndex`): a dense ``key - lo -> code`` table when the ids are
dense enough, sorted ``np.searchsorted`` arrays otherwise.  It turns a
batch membership probe into one vectorised gather instead of one dict hop
per user, and lets an ``int64`` key column be interned without boxing its
known keys (:meth:`UserInterner.intern_many`).  The index persists: the
writer extends it by the keys interned since its last extension and
publishes each extension as a new tuple, so a reader holding a frozen
prefix of the codes can probe it concurrently.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro.hashing import fold_key, fold_key_array
from repro.hashing.mix import INT64_MAX, INT64_MIN, all_int64

#: A batch of keys: any sequence, or an integer array standing for its ints.
Keys = Sequence[object] | np.ndarray

#: Batches up to this size skip the vectorised paths (dict probes win).
_VECTOR_MIN = 4

#: Smallest key span a dense probe table may always cover; above it the
#: span must stay within 4x the key count, or the index keeps sorted arrays.
_DENSE_FLOOR = 1 << 16


def int_probes(keys: Keys) -> np.ndarray | None:
    """A probe batch as a lossless 1-D ``int64`` array, or None.

    None for anything the integer index cannot answer exactly: strings,
    floats, tuples (a list of equal-length tuples coerces to a 2-D array)
    and unsigned ids beyond ``int64``.
    """
    try:
        arr = keys if isinstance(keys, np.ndarray) else np.asarray(keys)
    except (ValueError, TypeError):  # ragged / inhomogeneous probe lists
        return None
    if arr.ndim != 1:
        return None
    kind = arr.dtype.kind
    if kind == "i":
        return arr.astype(np.int64, copy=False)
    if kind == "u":
        if arr.size and int(arr.max()) > INT64_MAX:
            return None
        return arr.astype(np.int64)
    return None


class IntIndex(NamedTuple):
    """The integer probe index over the first ``size`` codes, as published.

    Dense form: ``table[key - base]`` is the key's code, ``-1`` for gaps.
    Sparse form (``table is None``): ``keys`` sorted, ``codes`` aligned.
    ``lo``/``hi`` are the smallest and largest indexed keys.
    """

    size: int
    lo: int
    hi: int
    base: int
    table: np.ndarray | None
    keys: np.ndarray | None
    codes: np.ndarray | None

    def probe(self, probes: np.ndarray, limit: int) -> np.ndarray:
        """Codes of ``probes``; -1 for keys not indexed or coded at/above ``limit``.

        ``limit`` is the caller's frozen length.  A dense table may hold
        codes the writer filled in after this tuple was published — even
        above ``size`` — so the limit is applied to every probe.
        """
        if self.table is not None:
            table = self.table
            shifted = probes - self.base
            if shifted.size and 0 <= int(shifted.min()) and int(shifted.max()) < table.size:
                codes = table[shifted]
            else:
                inside = (shifted >= 0) & (shifted < table.size)
                codes = np.where(inside, table[np.where(inside, shifted, 0)], -1)
        else:
            keys = self.keys
            assert keys is not None and self.codes is not None
            # Searching in sorted order walks the keys one way, several
            # times faster than a binary search per probe in batch order.
            order = np.argsort(probes)
            ordered = probes[order]
            pos = np.minimum(np.searchsorted(keys, ordered), keys.size - 1)
            codes = np.empty(probes.size, dtype=np.int64)
            codes[order] = np.where(keys[pos] == ordered, self.codes[pos], -1)
        return np.where(codes < limit, codes, -1)


def _extend_index(
    index: IntIndex | None, fresh: np.ndarray, start: int
) -> IntIndex:
    """``index`` plus the keys ``fresh`` (codes ``start`` on), as a new tuple.

    A dense table that already spans the new keys is filled in place; its
    new slots are ``-1`` until then, and a reader treats codes at or above
    its frozen length as misses either way.  Anything else builds new
    arrays, so a reader holding the old tuple keeps a consistent index.
    """
    size = start + fresh.size
    codes = np.arange(start, size, dtype=np.int64)
    lo, hi = int(fresh.min()), int(fresh.max())
    if index is not None:
        lo, hi = min(lo, index.lo), max(hi, index.hi)
    span = hi - lo + 1
    bound = max(4 * size, _DENSE_FLOOR)
    if span <= bound:
        table = None if index is None else index.table
        if table is not None and index is not None:
            base = index.base
            if base <= lo and hi < base + table.size:
                table[fresh - base] = codes
                return IntIndex(size, lo, hi, base, table, None, None)
        # Room to grow upward, so ids arriving in increasing order rebuild
        # the table O(log n) times rather than per extension.
        width = max(span, min(2 * span, bound))
        grown = np.full(width, -1, dtype=np.int64)
        if index is not None:
            old_keys, old_codes = _index_items(index)
            grown[old_keys - lo] = old_codes
        grown[fresh - lo] = codes
        return IntIndex(size, lo, hi, lo, grown, None, None)
    if index is None:
        order = np.argsort(fresh, kind="stable")
        return IntIndex(size, lo, hi, lo, None, fresh[order], codes[order])
    old_keys, old_codes = _index_items(index)
    order = np.argsort(fresh, kind="stable")
    at = np.searchsorted(old_keys, fresh[order])
    return IntIndex(
        size,
        lo,
        hi,
        lo,
        None,
        np.insert(old_keys, at, fresh[order]),
        np.insert(old_codes, at, codes[order]),
    )


def _index_items(index: IntIndex) -> tuple[np.ndarray, np.ndarray]:
    """(sorted keys, codes) of every indexed key, from either form."""
    if index.table is None:
        assert index.keys is not None and index.codes is not None
        return index.keys, index.codes
    table = index.table
    slots = np.flatnonzero(table >= 0)
    return slots + index.base, table[slots]


class UserInterner:
    """Append-only key <-> dense-code mapping with optional fold storage."""

    __slots__ = (
        "_codes",
        "_keys",
        "_folds",
        "_track_folds",
        "_int_only",
        "_int_index",
    )

    def __init__(self, track_folds: bool = True, initial_capacity: int = 64) -> None:
        self._codes: dict[object, int] = {}
        self._keys: list[object] = []
        self._track_folds = track_folds
        self._folds: np.ndarray | None = (
            np.zeros(max(1, initial_capacity), dtype=np.uint64) if track_folds else None
        )
        #: True while every interned key is a plain int64-range int (the only
        #: population the integer probe index can represent losslessly).
        self._int_only = True
        #: The published probe index (None until the first extension).
        self._int_index: IntIndex | None = None

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

    def _grow_folds(self, size: int) -> np.ndarray:
        folds = self._folds
        assert folds is not None
        if size > folds.size:
            capacity = folds.size
            while capacity < size:
                capacity *= 2
            grown = np.zeros(capacity, dtype=np.uint64)
            grown[: folds.size] = folds
            self._folds = folds = grown
        return folds

    def intern(self, key: object, fold: int | None = None) -> int:
        """Return the code of ``key``, assigning the next dense code if new."""
        code = self._codes.get(key)
        if code is not None:
            return code
        code = len(self._keys)
        self._codes[key] = code
        self._keys.append(key)
        if self._track_folds:
            folds = self._grow_folds(code + 1)
            folds[code] = fold if fold is not None else fold_key(key)
        if self._int_only and not (
            type(key) is int and INT64_MIN <= key <= INT64_MAX
        ):
            self._int_only = False
        return code

    def intern_many(self, keys: Keys, folds: np.ndarray | None = None) -> np.ndarray:
        """Intern a batch of keys; returns their codes as an ``int64`` array.

        ``folds`` — when the caller already holds the keys' 64-bit folds
        (:attr:`EncodedBatch.user_hashes` is exactly that, aligned with
        ``batch.users`` and ``batch.user_column``) — skips recomputing
        ``fold_key`` per new key.

        Either path assigns new codes in first appearance, exactly as one
        :meth:`intern` call per key would, and both are writer-side calls:

        * an ``int64`` array into a pure-int interner (the column an
          integer :class:`~repro.engine.EncodedBatch` carries) never leaves
          numpy: the probe index resolves known keys, the misses are
          deduplicated with one ``np.unique``, and only the new keys are
          boxed, once, for the dict and the key list;
        * anything else resolves known keys through :meth:`lookup_many` and
          interns the misses in bulk, deduplicated under the dict's own key
          equality.
        """
        if self._int_only and isinstance(keys, np.ndarray) and keys.dtype == np.int64:
            return self._intern_column(keys, folds)
        codes = self.lookup_many(keys)
        missing = np.flatnonzero(codes < 0)
        if missing.size == 0:
            return codes
        missed = key_list(keys, missing)
        fresh = list(dict.fromkeys(missed))
        repeated = len(fresh) != len(missed)
        fresh_folds: np.ndarray | None = None
        if folds is not None:
            positions = missing
            if repeated:
                # A key missed twice keeps the fold of its first position.
                first = dict(zip(reversed(missed), reversed(missing.tolist())))
                positions = np.array([first[key] for key in fresh], dtype=np.int64)
            fresh_folds = folds[positions]
        start = len(self._keys)
        self._append(fresh, fresh_folds)
        if repeated:
            codes[missing] = np.fromiter(
                map(self._codes.__getitem__, missed), dtype=np.int64, count=len(missed)
            )
        else:
            codes[missing] = np.arange(start, start + len(fresh), dtype=np.int64)
        return codes

    def _intern_column(self, keys: np.ndarray, folds: np.ndarray | None) -> np.ndarray:
        """:meth:`intern_many` of an ``int64`` column into a pure-int interner."""
        start = len(self._keys)
        index = self.int_index()
        if index is None:
            codes = np.full(keys.size, -1, dtype=np.int64)
        else:
            codes = index.probe(keys, start)
        missing = np.flatnonzero(codes < 0)
        if missing.size == 0:
            return codes
        missed = keys[missing]
        uniques, first, inverse = np.unique(missed, return_index=True, return_inverse=True)
        # New codes follow first appearance: rank the uniques by first position.
        order = np.argsort(first)
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(start, start + order.size, dtype=np.int64)
        codes[missing] = rank[inverse.reshape(-1)]
        fresh = uniques[order]
        fresh_keys = fresh.tolist()
        self._codes.update(zip(fresh_keys, range(start, start + fresh.size)))
        self._keys.extend(fresh_keys)
        if self._track_folds:
            column = self._grow_folds(start + fresh.size)
            column[start : start + fresh.size] = (
                fold_key_array(fresh) if folds is None else folds[missing[first[order]]]
            )
        self._int_index = _extend_index(index, fresh, start)
        return codes

    def _append(self, fresh: list[object], folds: np.ndarray | None) -> None:
        """Give the new, distinct keys ``fresh`` the next codes, in order."""
        start = len(self._keys)
        self._codes.update(zip(fresh, range(start, start + len(fresh))))
        self._keys.extend(fresh)
        if self._track_folds:
            column = self._grow_folds(start + len(fresh))
            if folds is None:
                folds = np.fromiter(map(fold_key, fresh), dtype=np.uint64, count=len(fresh))
            column[start : start + len(fresh)] = folds
        if self._int_only and not all_int64(fresh):
            self._int_only = False

    # -- lookup ------------------------------------------------------------------

    def lookup(self, key: object) -> int:
        """Code of ``key``, or -1 if never interned."""
        code = self._codes.get(key)
        return -1 if code is None else code

    def lookup_many(self, keys: Keys) -> np.ndarray:
        """Codes of a batch of keys (-1 for unknown), vectorised when possible.

        A pure-int interned population probed with integers resolves through
        the integer probe index (extended first, so this is a writer-side
        call); everything else takes one C-level ``map`` over the dict —
        both produce identical codes.
        """
        if not self._keys:
            return np.full(len(keys), -1, dtype=np.int64)
        if self._int_only and len(keys) > _VECTOR_MIN:
            probes = int_probes(keys)
            if probes is not None:
                index = self.int_index()
                if index is not None:
                    return index.probe(probes, index.size)
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        return np.fromiter(
            map(self._codes.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
        )

    def folds(self, codes: np.ndarray) -> np.ndarray:
        """Fold column gather (requires ``track_folds=True``)."""
        assert self._folds is not None, "interner built with track_folds=False"
        return self._folds[codes]

    # -- integer probe index -------------------------------------------------------

    def int_index(self) -> IntIndex | None:
        """Extend the probe index to every interned key and publish it.

        Writer-side only (the thread that interns; in the service, under the
        ingest lock): each call adds the keys interned since the last
        extension (an ``int64`` :meth:`intern_many` extends it itself), so a
        dense table costs O(new keys) per call.  None while any key is not
        a plain int64-range int, or before the first intern.
        """
        if not self._int_only:
            self._int_index = None
            return None
        index = self._int_index
        size = len(self._keys)
        if size == 0 or (index is not None and index.size == size):
            return index
        start = 0 if index is None else index.size
        fresh = np.array(self._keys[start:size], dtype=np.int64)
        index = self._int_index = _extend_index(index, fresh, start)
        return index

    def published_int_index(self) -> IntIndex | None:
        """The last published probe index, without extending it (reader side)."""
        return self._int_index if self._int_only else None

    # -- accounting ---------------------------------------------------------------

    def resident_bytes(self) -> int:
        """Approximate resident footprint: dict + key list + key objects + folds."""
        import sys

        total = sys.getsizeof(self._codes) + sys.getsizeof(self._keys)
        total += sum(sys.getsizeof(key) for key in self._keys)
        if self._folds is not None:
            total += self._folds.nbytes
        index = self._int_index
        if index is not None:
            total += sum(
                array.nbytes
                for array in (index.table, index.keys, index.codes)
                if array is not None
            )
        return total


def key_list(keys: Keys, positions: np.ndarray) -> list[object]:
    """``[keys[p] for p in positions]``; an array's ints come back as Python ints."""
    if isinstance(keys, np.ndarray):
        return keys[positions].tolist()
    return [keys[position] for position in positions.tolist()]
