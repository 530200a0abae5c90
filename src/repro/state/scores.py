"""Columnar score table + frozen checkout views for the monitor's top-k.

:class:`ScoreTable` holds the ``TopKTracker``'s ``{user: score}`` table as
a read-only ``Mapping`` that iterates like a dict (insertion order; a user
that leaves the table and comes back moves to the end), backed by numpy
columns so ranking, thresholds and totals are vectorised:

* ``values``  — float64 score per code;
* ``present`` — bool membership (codes are permanent, deletion is a flag);
* ``rank``    — the monotone insertion counter; sorting present codes by
  rank reproduces dict insertion order exactly, because every insert *and*
  every re-insert takes a fresh rank.

Writes come as a batch of columns (:meth:`ScoreTable.put_many`, the
incremental top-k path: one dict assignment per key, in order) or as a
whole new table (:meth:`ScoreTable.replace`, the full refresh).

:meth:`checkout` returns a :class:`FrozenScores` — the read-only snapshot
``SpreaderMonitor.last_window_estimates`` hands to readers.  Checkout is
O(1) in the table size: the frozen view borrows the live columns, and the
table copies them for itself before its next mutation (copy-on-write with
ownership handoff — the frozen view keeps the originals, which are never
written again, so concurrent readers can gather from a snapshot while
ingest keeps mutating the table).  The frozen view's ``gather_exact``
probes the interner's integer probe index, which persists across
checkouts: an ``int64`` :meth:`ScoreTable.put_many` extends it as it
interns, and checkout catches it up to keys interned from lists.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.engine.base import hot_path
from repro.state.interner import Keys, UserInterner, int_probes


class ScoreTable(Mapping):
    """Mapping of user -> score over interner-coded numpy columns.

    Read-only as a mapping: writes go through :meth:`put_many` and
    :meth:`replace`.
    """

    def __init__(self, initial_capacity: int = 64) -> None:
        self._interner = UserInterner(track_folds=False, initial_capacity=initial_capacity)
        capacity = max(1, initial_capacity)
        self._values = np.zeros(capacity, dtype=np.float64)
        self._present = np.zeros(capacity, dtype=np.bool_)
        self._rank = np.zeros(capacity, dtype=np.int64)
        self._next_rank = 0
        self._count = 0
        #: Cached present-codes-in-rank-order array (None = needs rebuild).
        self._order_cache: np.ndarray | None = None
        #: True while rank order equals code order with no gaps, which makes
        #: ordered gathers plain contiguous slices.
        self._order_is_identity = True
        #: Columns currently borrowed by an outstanding FrozenScores.
        self._loaned = False

    # -- copy-on-write plumbing --------------------------------------------------

    def _prepare_write(self) -> None:
        """Detach from any outstanding checkout before the first mutation.

        The table takes fresh copies and leaves the originals to the frozen
        view — the lazy-copy contract: a checkout that is never followed by
        a mutation costs nothing.
        """
        if self._loaned:
            self._values = self._values.copy()
            self._present = self._present.copy()
            self._rank = self._rank.copy()
            self._loaned = False

    def checkout(self) -> FrozenScores:
        """An immutable snapshot of the current scores (see module doc).

        O(1) in the table size: the columns are loaned, and the interner's
        integer probe index is extended by any keys it does not cover yet —
        here, on the writer's side, so readers never build it.
        """
        self._interner.int_index()
        self._loaned = True
        return FrozenScores(
            self._interner,
            len(self._interner),
            self._values,
            self._present,
            self._rank,
            self._count,
        )

    # -- growth -------------------------------------------------------------------

    def _ensure_capacity(self, code: int) -> None:
        capacity = self._values.size
        if code < capacity:
            return
        new_capacity = capacity
        while new_capacity <= code:
            new_capacity *= 2
        values = np.zeros(new_capacity, dtype=np.float64)
        values[:capacity] = self._values
        present = np.zeros(new_capacity, dtype=np.bool_)
        present[:capacity] = self._present
        rank = np.zeros(new_capacity, dtype=np.int64)
        rank[:capacity] = self._rank
        # Growth allocates fresh columns either way, which also detaches any
        # outstanding checkout.
        self._values, self._present, self._rank = values, present, rank
        self._loaned = False

    # -- mapping protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, user: object) -> bool:
        code = self._interner._codes.get(user)
        return code is not None and bool(self._present[code])

    def __getitem__(self, user: object) -> float:
        code = self._interner._codes.get(user)
        if code is None or not self._present[code]:
            raise KeyError(user)
        return float(self._values[code])

    def get(self, user: object, default: Any = None) -> Any:
        code = self._interner._codes.get(user)
        if code is None or not self._present[code]:
            return default
        return float(self._values[code])

    @hot_path
    def put_many(self, keys: Keys, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Set ``keys[i] -> values[i]`` in order, as dict assignment would (keys unique).

        ``keys`` may be an ``int64`` column, which a pure-int table interns
        without boxing its known keys.  Returns ``(codes, previous)``: the
        keys' codes and their previous scores, NaN where a key was absent.
        New and re-inserted keys take fresh ranks in ``keys`` order (a
        re-inserted key moves to the end), and present keys keep theirs.
        """
        codes = self._interner.intern_many(keys)
        self._ensure_capacity(len(self._interner) - 1)
        self._prepare_write()
        present = self._present[codes]
        previous = np.where(present, self._values[codes], np.nan)
        self._values[codes] = values
        inserted = codes[~present]
        if inserted.size:
            # While rank order is code order every code is present, so each
            # inserted key is new and takes the next code: the order stays
            # the identity.  Otherwise the inserted keys rank above every
            # present key, in ``keys`` order, so they extend a cached order.
            self._present[inserted] = True
            self._rank[inserted] = np.arange(
                self._next_rank, self._next_rank + inserted.size, dtype=np.int64
            )
            self._next_rank += int(inserted.size)
            self._count += int(inserted.size)
            if self._order_cache is not None:
                self._order_cache = np.concatenate((self._order_cache, inserted))
        return codes, previous

    def ranks_at(self, codes: np.ndarray) -> np.ndarray:
        """The insertion ranks of ``codes`` (one column gather)."""
        return self._rank[codes]

    def values_at(self, codes: np.ndarray) -> np.ndarray:
        """The scores of ``codes`` (one column gather)."""
        return self._values[codes]

    def replace(self, keys: Keys, values: np.ndarray) -> None:
        """Make the table hold exactly ``keys -> values`` (keys unique).

        Same result as deleting every absent key in table order, then
        setting each key in order: surviving keys keep their rank (their
        first-seen position), new and re-inserted keys take fresh ranks in
        ``keys`` order.  One interning pass and a few column writes.
        """
        codes = self._interner.intern_many(keys)
        self._ensure_capacity(len(self._interner) - 1)
        self._prepare_write()
        n = len(self._interner)
        wanted = np.zeros(n, dtype=np.bool_)
        wanted[codes] = True
        present = self._present[:n]
        deleted = bool(np.any(present & ~wanted))
        inserted = codes[~present[codes]]
        present[:] = wanted
        self._values[codes] = values
        self._rank[inserted] = np.arange(
            self._next_rank, self._next_rank + inserted.size, dtype=np.int64
        )
        self._next_rank += int(inserted.size)
        self._count = int(codes.size)
        # Without deletions every insert is a brand-new code, assigned in
        # ``keys`` order — rank order stays code order.
        if deleted:
            self._order_is_identity = False
        self._order_cache = None

    def __iter__(self) -> Iterator[object]:
        keys = self._interner._keys
        for code in self.ordered_codes().tolist():
            yield keys[code]

    def items(self) -> Any:  # a lazy (user, score) generator, not an ItemsView
        keys = self._interner._keys
        values = self._values
        return (
            (keys[code], float(values[code]))
            for code in self.ordered_codes().tolist()
        )

    # -- ordered access -------------------------------------------------------------

    def ordered_codes(self) -> np.ndarray:
        """Present codes in insertion (rank) order — the dict iteration order."""
        if self._order_is_identity:
            return np.arange(self._count, dtype=np.int64)
        cache = self._order_cache
        if cache is None:
            n = len(self._interner)
            codes = np.flatnonzero(self._present[:n])
            cache = codes[np.argsort(self._rank[codes])]
            self._order_cache = cache
        return cache

    def total(self) -> float:
        """Sum of all scores in insertion order (one vector reduction).

        A pure function of (values, order): a resumed monitor rebuilding the
        same table computes the identical float, which is what the alert
        sequence-number reproducibility contract needs.
        """
        if self._order_is_identity:
            return float(self._values[: self._count].sum())
        codes = self.ordered_codes()
        if codes.size == 0:
            return 0.0
        return float(self._values[codes].sum())

    def threshold_candidates(self, threshold: float) -> list[tuple[object, float]]:
        """(user, score) pairs with ``score >= threshold`` in insertion order.

        The full evaluation's start-alert scan: one vector compare selects
        the (few) candidates, which are then boxed — instead of boxing every
        user/score in the table per batch.
        """
        codes = self.ordered_codes()
        if codes.size == 0:
            return []
        values = self._values[codes]
        selected = np.flatnonzero(values >= threshold)
        keys = self._interner._keys
        return [
            (keys[code], float(value))
            for code, value in zip(
                codes[selected].tolist(), values[selected].tolist()
            )
        ]

    def top_codes(self, k: int) -> list[int]:
        """Codes of the exact top-``k`` under ``(-score, rank)``, best first.

        One ``np.partition`` finds the ``k``-th best score, and only the
        codes at least that good (every code tied with it included) go
        through the ``lexsort``: the same codes in the same order as a
        lexsort of the whole table.
        """
        codes = self.ordered_codes()
        if codes.size == 0:
            return []
        negated = -self._values[codes]
        if k < codes.size:
            kth = np.partition(negated, k - 1)[k - 1]
            # "Not worse than the k-th" also keeps NaNs, which sort last.
            kept = np.flatnonzero(~(negated > kth))
            codes, negated = codes[kept], negated[kept]
        selected = np.lexsort((self._rank[codes], negated))[:k]
        return codes[selected].tolist()

    def key_at(self, code: int) -> object:
        return self._interner._keys[code]

    def value_at(self, code: int) -> float:
        return float(self._values[code])


class FrozenScores(Mapping):
    """Immutable mapping view over a :meth:`ScoreTable.checkout`.

    Codes interned after the checkout are >= the frozen length and read as
    absent; the interner's dict and key list are append-only, so sharing
    them with the live table is safe (the columns themselves are protected
    by the table's copy-on-write handoff).  Iteration order is the frozen
    insertion order, derived lazily — the hot consumers (``spread`` /
    ``batch_spread`` gathers, ``len``) never need it.
    """

    __slots__ = (
        "_interner",
        "_n",
        "_values",
        "_present",
        "_rank",
        "_count",
        "_order",
    )

    def __init__(
        self,
        interner: UserInterner,
        n: int,
        values: np.ndarray,
        present: np.ndarray,
        rank: np.ndarray,
        count: int,
    ) -> None:
        self._interner = interner
        self._n = n
        self._values = values
        self._present = present
        self._rank = rank
        self._count = count
        self._order: np.ndarray | None = None

    def __len__(self) -> int:
        return self._count

    def __contains__(self, user: object) -> bool:
        code = self._interner._codes.get(user)
        return code is not None and code < self._n and bool(self._present[code])

    def __getitem__(self, user: object) -> float:
        code = self._interner._codes.get(user)
        if code is None or code >= self._n or not self._present[code]:
            raise KeyError(user)
        return float(self._values[code])

    def get(self, user: object, default: Any = None) -> Any:
        code = self._interner._codes.get(user)
        if code is None or code >= self._n or not self._present[code]:
            return default
        return float(self._values[code])

    def _ordered(self) -> np.ndarray:
        order = self._order
        if order is None:
            codes = np.flatnonzero(self._present[: self._n])
            order = self._order = codes[np.argsort(self._rank[codes])]
        return order

    def __iter__(self) -> Iterator[object]:
        keys = self._interner._keys
        for code in self._ordered().tolist():
            yield keys[code]

    def keys(self) -> Any:  # a lazy iterator, not a KeysView
        return iter(self)

    def values(self) -> Any:  # a lazy iterator, not a ValuesView
        values = self._values
        return (float(values[code]) for code in self._ordered().tolist())

    def items(self) -> Any:  # a lazy (user, score) generator, not an ItemsView
        keys = self._interner._keys
        values = self._values
        return (
            (keys[code], float(values[code])) for code in self._ordered().tolist()
        )

    def __repr__(self) -> str:
        return f"FrozenScores({self._count} users)"

    # -- vectorised gathers ----------------------------------------------------------

    def gather_exact(self, users: Sequence[object]) -> list[float] | None:
        """All-present batch gather, or None if any user misses.

        The ``batch_spread`` hot path: mirrors the semantics of the old
        ``operator.itemgetter`` fast path exactly — a single miss makes the
        caller fall back to the per-user normalising lookup.  Integer probes
        resolve through the interner's published probe index, which the
        writer extended at checkout; codes at or above the frozen length
        were interned later and count as misses.
        """
        probes = int_probes(users)
        index = self._interner.published_int_index()
        if probes is None or index is None:
            return self._gather_via_dict(users)
        codes = index.probe(probes, self._n)
        if not np.all(codes >= 0) or not np.all(self._present[codes]):
            return None
        return self._values[codes].tolist()

    def _gather_via_dict(self, users: Sequence[object]) -> list[float] | None:
        codes_map = self._interner._codes
        values = self._values
        present = self._present
        n = self._n
        out: list[float] = []
        for user in users:
            try:
                code = codes_map.get(user)
            except TypeError:  # unhashable probe — let the caller normalise
                return None
            if code is None or code >= n or not present[code]:
                return None
            out.append(float(values[code]))
        return out

    def total(self) -> float:
        """Sum of the frozen scores in insertion order (vector reduction)."""
        codes = self._ordered()
        if codes.size == 0:
            return 0.0
        return float(self._values[codes].sum())
