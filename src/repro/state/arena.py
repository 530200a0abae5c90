"""Columnar per-user state for every estimator.

One :class:`UserArena` replaces the Python dicts of boxed objects an
estimator used to keep per user — ``{user: float}`` running or cached
estimates, and for the virtual-sketch methods (CSE, vHLL)
``{user: np.ndarray(m)}`` sketch-position rows — with numpy columns
addressed by the dense codes of a :class:`~repro.state.interner.UserInterner`:

=================  =========  ====================================================
column             dtype      meaning
=================  =========  ====================================================
``estimate``       float64    the ``estimate()`` value (a running HT sum for
                              FreeBS/FreeRS, the latest cached one otherwise)
``has_estimate``   bool       whether the estimate was ever published
``fold``           uint64     64-bit key fold (interner-owned; positions seed)
``positions``      int64      ``(capacity, m)`` contiguous physical-cell rows
``positions_ok``   bool       whether a user's dense positions row is materialised
``arrival``        int64      the user's last batch arrival on the arena's
                              clock (-1: none yet)
=================  =========  ====================================================

FreeBS/FreeRS and the per-user-sketch baselines (LPC, HLL++) build their
arena without a hash family: estimate columns only, no folds, no positions
and no arrivals.  CSE/vHLL use all six columns.

Columns grow by amortised doubling; a grow copies the columns but never
changes a code, so references held by query kernels stay valid.

Positions
---------

While the capacity is at most ``dense_limit`` users the arena keeps the
contiguous ``(capacity, m)`` int64 block — row gathers are pure
``np.take``, the fastest query path.  Beyond it (from the start, when the
initial capacity already exceeds the limit) the block is dropped and rows
recompute on demand from the 8-byte fold through
``HashFamily.positions_from_hashes`` (bit-identical to the cached rows by
the hashing contract) — 8 bytes/user instead of ``8*m``, exactly when
footprint starts to matter.

Estimators read and write the columns through the methods below only:
``estimate_of`` / ``estimate_column`` / ``estimate_columns`` to read, and
``set_estimate(s)`` / ``add_estimate`` / ``publish`` / ``accumulate`` /
``load_estimates`` to write.  Published users iterate in intern order,
which is the first-seen order every ranking tie-breaks on.

Deferred estimates
------------------

CSE's and vHLL's batch paths publish a batch's users without working out
their estimates (:meth:`UserArena.defer`): each user's last arrival goes
into the ``arrival`` column, and the batch's change events into a pending
log the arena keeps for the estimator.  The estimator's first read of its
cached estimates takes both back (:meth:`UserArena.take_pending`) and
works out every owed estimate in one pass.  ``set_all_estimates`` and
``load_estimates`` overwrite what is owed, so they drop it.
"""

from __future__ import annotations

import copy
import weakref
from collections.abc import Mapping, Sequence
from itertools import compress
from typing import Any, Protocol

import numpy as np

from repro import obs
from repro.obs import Gauge
from repro.state.interner import Keys, UserInterner

#: Default capacity above which an arena drops its dense positions block.
#: Chosen above the service-scale query benchmarks (100k users stay on the
#: dense fast path) but far below the multi-million-user populations the
#: fold mode exists for.
DENSE_POSITIONS_LIMIT = 1 << 17

#: Approximate per-user overhead of the interner's dict slot + key object,
#: used for the cheap resident-bytes gauge (the exact figure needs an O(n)
#: ``sys.getsizeof`` sweep — see :meth:`UserArena.resident_bytes`).
_APPROX_KEY_OVERHEAD = 64


class HashFamily(Protocol):
    """The one hash-family operation the arena needs: fold rows -> positions."""

    def positions_from_hashes(self, folds: np.ndarray) -> np.ndarray: ...


def _retire_gauges(gauges: tuple[Gauge, Gauge], reported: list[int]) -> None:
    """Finalizer: subtract a dead arena's contribution from the process gauges."""
    users, nbytes = reported
    if users:
        gauges[0].add(-users)
    if nbytes:
        gauges[1].add(-nbytes)


class UserArena:
    """Arena-style columnar store of per-user sketch state.

    With a hash ``family`` (CSE/vHLL) the arena also keeps each user's
    fold and ``m`` sketch positions.  Without one (FreeBS/FreeRS, LPC,
    HLL++) it holds the estimate columns only; ``m`` and ``dense_limit``
    are then ignored.
    """

    def __init__(
        self,
        m: int = 0,
        family: HashFamily | None = None,
        dense_limit: int = DENSE_POSITIONS_LIMIT,
        owner: str = "arena",
        initial_capacity: int = 64,
    ) -> None:
        if family is not None and m <= 0:
            raise ValueError("m must be positive")
        self._interner = UserInterner(
            track_folds=family is not None, initial_capacity=initial_capacity
        )
        self._m = int(m) if family is not None else 0
        self._family = family
        self._owner = owner
        capacity = max(1, initial_capacity)
        self._estimate = np.zeros(capacity, dtype=np.float64)
        self._has_estimate = np.zeros(capacity, dtype=np.bool_)
        self._estimate_count = 0
        self._dense_limit = int(dense_limit)
        if family is None or capacity > self._dense_limit:
            self._positions: np.ndarray | None = None
            self._positions_ok: np.ndarray | None = None
        else:
            self._positions = np.zeros((capacity, self._m), dtype=np.int64)
            self._positions_ok = np.zeros(capacity, dtype=np.bool_)
        self._arrival = (
            None if family is None else np.full(capacity, -1, dtype=np.int64)
        )
        #: Arrival clock: pairs deferred so far; ``_settled`` is its value
        #: at the last take, so arrivals at or after it are still owed.
        self._clock = 0
        self._settled = 0
        self._log: list[tuple[np.ndarray, ...]] = []
        self._pending_events = 0
        self._pending_bytes = 0
        self._growth_events = 0
        self._attach_gauges()

    def _attach_gauges(self) -> None:
        """Resolve the occupancy gauges and arm the finalizer that retires them.

        Runs once per arena: at construction, and again on the copy a
        pickle round-trip or deepcopy makes, so interning never looks an
        instrument up by name.
        """
        self._gauges = (
            obs.gauge("state.arena.users", owner=self._owner),
            obs.gauge("state.arena.bytes", owner=self._owner),
        )
        #: [users, bytes] reported to the process gauges so far; mutated in
        #: place so the GC finalizer sees the final figures.
        self._reported = [0, 0]
        self._finalizer = weakref.finalize(
            self, _retire_gauges, self._gauges, self._reported
        )

    # -- pickling (weakref finalizers and instruments are not picklable) ----------

    _UNCOPIED = ("_finalizer", "_gauges", "_reported")

    def __getstate__(self) -> dict[str, Any]:
        # Gauge deltas belong to the source process.
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in self._UNCOPIED
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._attach_gauges()

    def __deepcopy__(self, memo: dict[int, Any]) -> UserArena:
        clone = object.__new__(UserArena)
        memo[id(self)] = clone
        clone.__dict__.update(
            {
                key: copy.deepcopy(value, memo)
                for key, value in self.__dict__.items()
                if key not in self._UNCOPIED
            }
        )
        clone._attach_gauges()
        return clone

    # -- sizing -------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self._interner)

    @property
    def m(self) -> int:
        return self._m

    @property
    def positions_mode(self) -> str:
        """The live positions representation: ``dense``, ``fold`` or ``none``."""
        if self._family is None:
            return "none"
        return "dense" if self._positions is not None else "fold"

    @property
    def growth_events(self) -> int:
        return self._growth_events

    def users(self) -> list[object]:
        """All tracked users in intern (first-seen) order."""
        return self._interner.users()

    def users_since(self, start: int) -> list[object]:
        """The users interned from code ``start`` on, in intern order."""
        return self._interner.keys[start:]

    def _ensure_capacity(self, code: int) -> None:
        capacity = self._estimate.size
        if code < capacity:
            return
        new_capacity = capacity
        while new_capacity <= code:
            new_capacity *= 2
        grown = np.zeros(new_capacity, dtype=np.float64)
        grown[:capacity] = self._estimate
        self._estimate = grown
        grown_has = np.zeros(new_capacity, dtype=np.bool_)
        grown_has[:capacity] = self._has_estimate
        self._has_estimate = grown_has
        if self._arrival is not None:
            grown_arrival = np.full(new_capacity, -1, dtype=np.int64)
            grown_arrival[:capacity] = self._arrival
            self._arrival = grown_arrival
        if self._positions is not None:
            assert self._positions_ok is not None
            if new_capacity > self._dense_limit:
                # The population outgrew the dense block: drop it and
                # recompute rows from folds from here on.
                self._positions = None
                self._positions_ok = None
                obs.counter(
                    "state.arena.dense_to_fold", owner=self._owner
                ).add()
            else:
                grown_pos = np.zeros((new_capacity, self._m), dtype=np.int64)
                grown_pos[:capacity] = self._positions
                self._positions = grown_pos
                grown_ok = np.zeros(new_capacity, dtype=np.bool_)
                grown_ok[:capacity] = self._positions_ok
                self._positions_ok = grown_ok
        self._growth_events += 1
        obs.counter("state.arena.growth_events", owner=self._owner).add()
        self._report_bytes()

    # -- interning ----------------------------------------------------------------

    def intern(self, user: object, fold: int | None = None) -> int:
        before = len(self._interner)
        code = self._interner.intern(user, fold)
        if code >= before:
            self._ensure_capacity(code)
            self._report_users(1)
        return code

    def intern_many(self, users: Keys, folds: np.ndarray | None = None) -> np.ndarray:
        before = len(self._interner)
        codes = self._interner.intern_many(users, folds)
        added = len(self._interner) - before
        if added:
            self._ensure_capacity(len(self._interner) - 1)
            self._report_users(added)
        return codes

    def adopt(self, source: UserArena, start: int = 0, published_only: bool = False) -> None:
        """Intern ``source``'s users from code ``start`` on, in its intern order.

        New users take their folds from ``source``, and any position rows
        ``source`` has already materialised are copied rather than
        recomputed (bit-identical by the hashing contract, and both arenas
        must share the hash family).  ``published_only`` skips users
        without a published estimate — the users an estimate-mapping
        iteration would yield.
        """
        stop = source.n_users
        codes = np.arange(start, stop, dtype=np.int64)
        if published_only:
            codes = codes[source._has_estimate[start:stop]]
        if codes.size == 0:
            return
        keys = source._interner._keys
        users = [keys[code] for code in codes.tolist()]
        before = self.n_users
        mine = self.intern_many(users, source._interner.folds(codes))
        if self._positions is None or source._positions is None:
            return
        assert self._positions_ok is not None and source._positions_ok is not None
        reuse = (mine >= before) & source._positions_ok[codes]
        self._positions[mine[reuse]] = source._positions[codes[reuse]]
        self._positions_ok[mine[reuse]] = True

    def lookup(self, user: object) -> int:
        return self._interner.lookup(user)

    def lookup_many(self, users: Keys) -> np.ndarray:
        return self._interner.lookup_many(users)

    # -- positions ----------------------------------------------------------------

    def positions_row(self, code: int) -> np.ndarray:
        """One user's ``m`` physical positions (scalar update/estimate path)."""
        folds = self._interner._folds
        assert folds is not None
        fold = folds[code : code + 1]
        if self._positions is None:
            return self._family.positions_from_hashes(fold)[0]
        assert self._positions_ok is not None
        if not self._positions_ok[code]:
            self._positions[code] = self._family.positions_from_hashes(fold)[0]
            self._positions_ok[code] = True
        return self._positions[code]

    def positions_rows(self, codes: np.ndarray) -> np.ndarray:
        """``(len(codes), m)`` positions matrix; one gather, no Python loop.

        Dense mode materialises any missing rows first (one vectorised
        family pass over the missing folds — bit-identical to
        ``family.positions`` per key); fold mode recomputes every requested
        row the same way without storing it.
        """
        if self._positions is None:
            return self._family.positions_from_hashes(self._interner.folds(codes))
        self._materialise(codes)
        return self._positions[codes]

    def positions_at(self, codes: np.ndarray, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """``positions_rows(codes)[rows, columns]``: one cell per (row, column).

        The batch update paths' per-pair gather.  Dense mode reads the cells
        straight off the positions block (after materialising any missing
        rows of ``codes``) instead of copying every row first.
        """
        if self._positions is None:
            return self.positions_rows(codes)[rows, columns]
        self._materialise(codes)
        return self._positions[codes[rows], columns]

    def _materialise(self, codes: np.ndarray) -> None:
        """Fill the dense rows of ``codes`` that are not materialised yet."""
        assert self._positions is not None and self._positions_ok is not None
        ok = self._positions_ok[codes]
        if not ok.all():
            missing = codes[~ok]
            self._positions[missing] = self._family.positions_from_hashes(
                self._interner.folds(missing)
            )
            self._positions_ok[missing] = True

    def all_positions(self) -> np.ndarray:
        """``(n_users, m)`` positions of every user, in intern order.

        Dense mode returns a view of the positions block (valid until the
        next intern; do not write to it) instead of a fancy-indexed copy;
        fold mode recomputes every row.
        """
        n = self.n_users
        if self._positions is None:
            return self.positions_rows(np.arange(n, dtype=np.int64))
        assert self._positions_ok is not None
        missing = np.flatnonzero(~self._positions_ok[:n])
        if missing.size:
            self.positions_rows(missing)
        return self._positions[:n]

    def positions_cached_count(self) -> int:
        """Number of materialised dense rows (0 in fold mode)."""
        if self._positions_ok is None:
            return 0
        return int(np.count_nonzero(self._positions_ok[: self.n_users]))

    # -- estimates ----------------------------------------------------------------

    def set_estimate(self, code: int, value: float) -> None:
        if not self._has_estimate[code]:
            self._has_estimate[code] = True
            self._estimate_count += 1
        self._estimate[code] = value

    def set_estimates(self, codes: np.ndarray, values: np.ndarray) -> None:
        """Column write for a batch of (unique) codes."""
        fresh = int(np.count_nonzero(~self._has_estimate[codes]))
        if fresh:
            self._has_estimate[codes] = True
            self._estimate_count += fresh
        self._estimate[codes] = values

    def set_all_estimates(self, values: Sequence[float]) -> None:
        """Replace every tracked user's estimate, in intern order.

        Drops every deferred estimate: the new values replace them.
        """
        self.drop_pending()
        n = self.n_users
        self._estimate[:n] = np.asarray(values, dtype=np.float64)
        self._has_estimate[:n] = True
        self._estimate_count = n

    def load_estimates(self, mapping: Mapping[object, float]) -> None:
        """Adopt a ``{user: estimate}`` mapping (snapshot-restore seam).

        Users are interned in mapping order, so a restored estimator's
        first-seen order equals the order the snapshot was written in.
        Drops every deferred estimate, as :meth:`set_all_estimates` does.
        """
        self.drop_pending()
        self._has_estimate[: self.n_users] = False
        self._estimate_count = 0
        users = list(mapping)
        if not users:
            return
        # Dict keys are unique under the same equality the interner uses, so
        # the codes are unique: one column write adopts the whole mapping.
        codes = self.intern_many(users)
        self._estimate[codes] = np.fromiter(
            mapping.values(), dtype=np.float64, count=len(users)
        )
        self._has_estimate[codes] = True
        self._estimate_count = len(users)

    def publish(self, codes: np.ndarray) -> None:
        """Publish 0.0 for the not yet published codes of a batch (unique codes)."""
        fresh = codes[~self._has_estimate[codes]]
        if fresh.size:
            self._estimate[fresh] = 0.0
            self._has_estimate[fresh] = True
            self._estimate_count += int(fresh.size)

    def add_estimate(self, user: object, increment: float) -> float:
        """Add ``increment`` to ``user``'s estimate (0.0 if unpublished); returns the sum."""
        code = self.intern(user)
        base = float(self._estimate[code]) if self._has_estimate[code] else 0.0
        value = base + increment
        self.set_estimate(code, value)
        return value

    def accumulate(self, codes: np.ndarray, increments: np.ndarray) -> None:
        """Add ``increments[i]`` to the estimate of ``codes[i]``, in array order.

        ``np.add.at`` is unbuffered: a repeated code takes its additions one
        at a time in array order — the left fold a per-event loop computes
        (``bincount`` or ``reduceat`` would re-associate the sums).  Every
        code must already be published.
        """
        np.add.at(self._estimate, codes, increments)

    def add_estimates_from(self, source: UserArena) -> None:
        """Add each published estimate of ``source`` to the same user's here.

        Users unpublished here start from 0.0.  In ``source``'s intern
        order, so new users are appended in that order: the additive merge
        of two estimate columns.
        """
        n = source.n_users
        users = source._interner.keys[:n]
        values = source._estimate[:n]
        if source._estimate_count != n:
            has = source._has_estimate[:n]
            users = list(compress(users, has.tolist()))
            values = values[has]
        codes = self.intern_many(users)
        self.publish(codes)
        self._estimate[codes] += values

    def estimate_columns(self) -> tuple[list[object], np.ndarray]:
        """Published users in intern order, with a copy of their estimates.

        The direct column read behind ``estimates()`` and checkpoints: one
        list slice and one column slice, no per-user lookups.
        """
        n = self.n_users
        keys = self._interner._keys
        if self._estimate_count == n:
            return keys[:n], self._estimate[:n].copy()
        has = self._has_estimate[:n]
        return list(compress(keys, has.tolist())), self._estimate[:n][has]

    def estimate_slice(self, stop: int) -> np.ndarray:
        """The estimate column over codes ``[0, stop)`` (a view; do not write)."""
        return self._estimate[:stop]

    def estimates_dict(self) -> dict[object, float]:
        """``{user: estimate}`` of the published users in intern order."""
        users, values = self.estimate_columns()
        return dict(zip(users, values.tolist()))

    def estimate_of(self, user: object) -> float:
        """One user's estimate; 0.0 for an unseen or unpublished user."""
        code = self._interner.lookup(user)
        if code < 0 or not self._has_estimate[code]:
            return 0.0
        return float(self._estimate[code])

    def estimate_column(self, users: Keys) -> np.ndarray:
        """float64 estimates of ``users`` in input order, 0.0 where unpublished.

        ``users`` may be an ``int64`` array (see
        :func:`~repro.state.interner.int_probes`), which a pure-int arena
        resolves through its integer probe index.
        """
        codes = self.lookup_many(users)
        hit = codes >= 0
        safe = np.where(hit, codes, 0)
        return np.where(hit & self._has_estimate[safe], self._estimate[safe], 0.0)

    # -- deferred estimates -----------------------------------------------------------

    @property
    def clock(self) -> int:
        """The arrival time of the next deferred pair (pairs deferred so far)."""
        return self._clock

    @property
    def pending_events(self) -> int:
        """Change events logged since the last :meth:`take_pending`."""
        return self._pending_events

    def defer(
        self,
        codes: np.ndarray,
        arrivals: np.ndarray,
        pairs: int,
        entry: tuple[np.ndarray, ...],
        events: int,
    ) -> None:
        """Publish a batch's (unique) ``codes`` and owe them their estimates.

        ``arrivals`` is each user's last arrival in the batch on the arrival
        clock (the batch's first pair arrives at :attr:`clock`), which then
        moves on by the batch's ``pairs``.  ``entry`` is the estimator's
        record of the batch's ``events`` change events, as arrays; the
        arena keeps it in the pending log, unread, until
        :meth:`take_pending`, and counts its bytes in the bytes gauge.
        """
        self.publish(codes)
        assert self._arrival is not None
        self._arrival[codes] = arrivals
        self._clock += pairs
        self._log.append(entry)
        self._pending_events += events
        self._pending_bytes += sum(array.nbytes for array in entry)
        self._report_bytes()

    def take_pending(self) -> tuple[np.ndarray, np.ndarray, list[Any]] | None:
        """Hand back everything deferred since the last take, and forget it.

        Returns ``(codes, arrivals, log)``: the users owed an estimate in
        code order, each one's last arrival, and the logged entries in batch
        order.  None when nothing was deferred.
        """
        if self._clock == self._settled:
            return None
        assert self._arrival is not None
        codes = np.flatnonzero(self._arrival[: self.n_users] >= self._settled)
        pending = codes, self._arrival[codes], self._log
        self.drop_pending()
        return pending

    def drop_pending(self) -> None:
        """Forget every deferred estimate: their values are being replaced."""
        self._settled = self._clock
        self._log = []
        self._pending_events = 0
        if self._pending_bytes:
            self._pending_bytes = 0
            self._report_bytes()

    # -- accounting ----------------------------------------------------------------

    def _column_bytes(self) -> int:
        total = self._estimate.nbytes + self._has_estimate.nbytes
        if self._arrival is not None:
            total += self._arrival.nbytes + self._pending_bytes
        interner_folds = self._interner._folds
        if interner_folds is not None:
            total += interner_folds.nbytes
        if self._positions is not None:
            assert self._positions_ok is not None
            total += self._positions.nbytes + self._positions_ok.nbytes
        return total

    def resident_bytes(self) -> int:
        """Measured resident footprint: columns + interner dict/list/keys."""
        return self._column_bytes() + self._interner.resident_bytes()

    def stats(self) -> dict[str, object]:
        return {
            "owner": self._owner,
            "users": self.n_users,
            "m": self._m,
            "positions_mode": self.positions_mode,
            "growth_events": self._growth_events,
            "column_bytes": self._column_bytes(),
            "resident_bytes": self.resident_bytes(),
        }

    def _report_users(self, added: int) -> None:
        users_gauge, bytes_gauge = self._gauges
        self._reported[0] += added
        users_gauge.add(added)
        # Keep the bytes gauge roughly current between growths: the interner
        # side grows per key, the columns only at doubling events.
        self._reported[1] += added * _APPROX_KEY_OVERHEAD
        bytes_gauge.add(added * _APPROX_KEY_OVERHEAD)

    def _report_bytes(self) -> None:
        current = self._column_bytes() + self.n_users * _APPROX_KEY_OVERHEAD
        delta = current - self._reported[1]
        if delta:
            self._reported[1] = current
            self._gauges[1].add(delta)
