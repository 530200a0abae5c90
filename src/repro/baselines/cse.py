"""CSE — Compact Spread Estimator (Yoon, Li, Chen & Peir, INFOCOM 2009).

CSE compresses one virtual LPC sketch per user into a single shared bit array
``A`` of ``M`` bits.  User ``s``'s virtual sketch is the ``m`` bits
``A[f_1(s)], ..., A[f_m(s)]`` selected by ``m`` independent hash functions.
An arriving pair (s, d) sets the ``h(d)``-th bit of the virtual sketch, i.e.
the physical bit ``A[f_{h(d)}(s)]``.

The estimator corrects for "noisy" bits (bits of the virtual sketch set by
*other* users) by subtracting the global fill term:

    n_hat_s = -m ln(U_hat_s / m) + m ln(U / M)

where ``U_hat_s`` is the number of zero bits in the virtual sketch and ``U``
the number of zero bits in the whole array.

Complexity: every estimate refresh costs O(m) because the virtual sketch has
to be scanned; the paper's Challenge 2 is precisely this cost.  Following the
evaluation protocol of the paper (Section V-B), the streaming wrapper only
re-estimates the cardinality of the *arriving* user after each update and
keeps a per-user counter of the latest estimate.  The scalar ``update``
refreshes the counter on every pair.  The batch path keeps the same
counter values but defers them: it commits a batch's bit flips and logs
them, and the first read of the cached estimates works out every owed
value in one pass over the log (:meth:`CSE.settle`).  A read therefore
costs O(m) per user that arrived since the previous read; the served
sliding merge reads the array, not the counters, so it never pays it.

Known limitations faithfully reproduced:

* the estimation range is bounded by ``m ln m`` — CSE reports wildly wrong
  (or saturated) values for heavy users, which is visible in Figure 4/5;
* accuracy depends strongly on the choice of ``m`` (Challenge 1).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.core.base import CardinalityEstimator
from repro.engine.base import BatchUpdatable, hot_path
from repro.engine.encoding import EncodedBatch
from repro.engine.kernels import (
    bit_change_events,
    event_time_for_index,
    last_occurrence,
    map_distinct,
    row_blocks,
    touched_query_positions,
)
from repro.hashing import HashFamily, hash64
from repro.sketches.bitarray import BitArray
from repro.state import UserArena


@functools.lru_cache(maxsize=None)
def _local_terms(m: int) -> np.ndarray:
    """The local term ``-m ln(U_hat / m)`` for every count ``U_hat`` in 0..m.

    Entry 0 (a saturated virtual sketch) pins at the range maximum
    ``m ln m``.  Built with ``math.log`` once per ``m``; the scalar and the
    array closed forms both read it, so they cannot disagree.
    """
    terms = [m * math.log(m)] + [-m * math.log(zeros / m) for zeros in range(1, m + 1)]
    table = np.array(terms, dtype=np.float64)
    table.flags.writeable = False
    return table


class CSE(BatchUpdatable, CardinalityEstimator):
    """Bit-sharing virtual-LPC estimator with ``M`` shared bits, ``m`` per user."""

    name = "CSE"

    def __init__(self, memory_bits: int, virtual_size: int = 1024, seed: int = 0) -> None:
        if memory_bits <= 0:
            raise ValueError("memory_bits must be positive")
        if virtual_size <= 0:
            raise ValueError("virtual_size must be positive")
        if virtual_size > memory_bits:
            raise ValueError("virtual_size cannot exceed memory_bits")
        self.M = memory_bits
        self.m = virtual_size
        self.seed = seed
        self._bits = BitArray(memory_bits)
        self._family = HashFamily(virtual_size, memory_bits, seed=seed ^ 0x5CE)
        # Columnar per-user state: cached estimates plus the m physical bit
        # positions per user (dense rows up to the auto limit, recomputed
        # from the 8-byte key fold beyond it — bit-identical either way).
        self._arena = UserArena(m=virtual_size, family=self._family, owner=self.name)

    # -- internal helpers -----------------------------------------------------

    def _estimate_from_sketch(self, positions: np.ndarray) -> float:
        """Recompute the CSE estimate of the user at ``positions`` (O(m))."""
        virtual_zeros = int(np.count_nonzero(~self._bits.get_bits(positions)))
        return self._estimate_from_counts(virtual_zeros, self._bits.zero_fraction)

    def _estimate_from_counts(self, virtual_zeros: int, global_zero_fraction: float) -> float:
        """The CSE estimation formula from its two sufficient statistics.

        The scalar path's form (one user, current array state).
        :meth:`_estimates_from_counts` is its array form, which the batch and
        fresh paths use; the two agree bit-for-bit.
        """
        local_term = float(_local_terms(self.m)[virtual_zeros])
        return max(0.0, local_term + self._correction(global_zero_fraction))

    def _estimates_from_counts(
        self, virtual_zeros: np.ndarray, correction: float | np.ndarray
    ) -> np.ndarray:
        """:meth:`_estimate_from_counts` over a column of virtual-zero counts.

        ``correction`` is :meth:`_correction`'s global term: one value for
        every user, or a column with each user's own.  Same table, same
        float additions; ``max(0.0, x)`` becomes ``np.where(x > 0.0, x,
        0.0)``, so every element is bit-identical to the scalar formula.
        """
        total = _local_terms(self.m)[virtual_zeros] + correction
        return np.where(total > 0.0, total, 0.0)

    def _correction(self, global_zero_fraction: float) -> float:
        """The global fill term ``m ln(U / M)`` (clamped on a full array)."""
        if global_zero_fraction <= 0.0:
            return self.m * math.log(1.0 / self.M)
        return self.m * math.log(global_zero_fraction)

    def _intern_batch(self, batch: EncodedBatch) -> np.ndarray:
        """Arena codes of a batch's unique users (interned in batch order)."""
        return self._arena.intern_many(batch.user_keys(), batch.user_hashes)

    # -- streaming API --------------------------------------------------------

    def update(self, user: object, item: object) -> float:
        """Process one (user, item) pair; refresh only this user's estimate (O(m)).

        Settles first: the log the deferred estimates read does not record
        this path's flips.
        """
        self.settle()
        code = self._arena.intern(user)
        positions = self._arena.positions_row(code)
        bucket = hash64(item, seed=self.seed ^ 0xD1) % self.m
        self._bits.set_bit(int(positions[bucket]))
        estimate = self._estimate_from_sketch(positions)
        self._arena.set_estimate(code, estimate)
        return estimate

    @hot_path
    def update_encoded(self, batch: EncodedBatch) -> None:
        """Vectorised engine path: process a whole encoded batch at once.

        Bit-identical to the scalar loop.  The scalar path refreshes only the
        *arriving* user's estimate after each pair, so each user's cached
        estimate reflects the shared array **as of that user's last
        arrival** — later pairs of other users are not folded in.  The batch
        path detects the batch's bit-flip events and commits them, then
        defers the estimates (:meth:`UserArena.defer`): it records each
        batch user's last arrival and logs the flips (bit, arrival time) for
        :meth:`settle`.
        """
        count = len(batch)
        if count == 0:
            return
        arena_codes = self._intern_batch(batch)
        buckets = (
            batch.item_hashes_with_seed(self.seed ^ 0xD1) % np.uint64(self.m)
        ).astype(np.int64)
        bit_indices = self._arena.positions_at(arena_codes, batch.user_codes, buckets)

        events = bit_change_events(bit_indices, ~self._bits.get_bits(bit_indices))
        event_bits = bit_indices[events]
        if event_bits.size:
            self._bits.set_new_bits(event_bits)
        start = self._arena.clock
        self._arena.defer(
            arena_codes,
            start + last_occurrence(batch.user_codes, batch.n_users),
            count,
            (event_bits, start + events),
            int(events.size),
        )

    def settle(self) -> None:
        """Work out every cached estimate :meth:`update_encoded` deferred.

        Each owed user's estimate reads the shared array as of its last
        arrival, by time-travel over the flips logged since the previous
        settle.  A bit was zero then iff it is zero now or its flip came
        later, so the virtual-zero counts need the flip-time lookup only at
        positions whose bit flipped in the log, and the global zero count
        is the current one plus the flips the user did not see.  The closed
        form runs over those columns (the global term once per distinct
        global zero count), in blocks of users of bounded size: the same
        integers and floats as the scalar path, bit for bit.
        """
        pending = self._arena.take_pending()
        if pending is None:
            return
        codes, arrivals, log = pending
        flip_bits = np.concatenate([bits for bits, _times in log])
        flip_times = np.concatenate([times for _bits, times in log])
        # Flips each user saw by its last arrival (the times ascend).
        seen = np.searchsorted(flip_times, arrivals, side="right")
        corrections = map_distinct(
            self._bits.zeros + flip_bits.size - seen,
            lambda global_zeros: self._correction(global_zeros / self.M),
        )
        # Each flipped bit's 1-based flip ordinal: a flip came after a
        # user's last arrival iff its ordinal exceeds what the user saw.
        order = np.argsort(flip_bits)
        bits_sorted, ordinals = flip_bits[order], order + 1
        for block in row_blocks(codes.size, self.m):
            flat_positions = self._arena.positions_rows(codes[block]).ravel()
            zero_then = ~self._bits.get_bits(flat_positions)
            touched = touched_query_positions(flat_positions, flip_bits, self.M)
            if touched.size:
                flipped_at = event_time_for_index(
                    flat_positions[touched], bits_sorted, ordinals, missing=0
                )
                zero_then[touched] |= flipped_at > seen[block][touched // self.m]
            virtual_zeros = zero_then.reshape(-1, self.m).sum(axis=1)
            self._arena.set_estimates(
                codes[block], self._estimates_from_counts(virtual_zeros, corrections[block])
            )

    def estimate(self, user: object) -> float:
        """Return the latest cached estimate of ``user`` (0.0 for unseen users)."""
        self.settle()
        return self._arena.estimate_of(user)

    def estimate_many(self, users):
        """Batch cached estimates in input order (the ``estimate`` semantics)."""
        self.settle()
        return self._arena.estimate_column(users).tolist()

    def estimate_fresh(self, user: object) -> float:
        """Recompute the estimate of ``user`` from the shared array right now.

        0.0 for a user the arena never interned: every path that touches a
        user's bits (scalar update, batch update, snapshot restore) interns
        it first, so interned means tracked.
        """
        code = self._arena.lookup(user)
        if code < 0:
            return 0.0
        return self._estimate_from_sketch(self._arena.positions_row(code))

    def estimate_fresh_many(self, users):
        """Batch :meth:`estimate_fresh` in input order, decoded vectorised.

        One ``(n_users, m)`` position gather and one axis-1 zero count
        replace the per-user O(m) scans; the closed form is
        :meth:`_estimates_from_counts`, the array form of the scalar
        formula, so the results are bit-identical to calling
        :meth:`estimate_fresh` per user.
        """
        codes = self._arena.lookup_many(list(users))
        tracked = np.flatnonzero(codes >= 0)
        results = np.zeros(codes.size, dtype=np.float64)
        if tracked.size:
            positions = self._arena.positions_rows(codes[tracked])
            results[tracked] = self._fresh_estimates_for(self._bits, positions)
        return results.tolist()

    def _fresh_estimates_for(self, bits: BitArray, positions: np.ndarray) -> np.ndarray:
        """Estimates of the users with ``(n, m)`` ``positions``, read off ``bits``.

        The whole-population decode shared by :meth:`estimate_fresh_many`
        (this estimator's own array) and the cached sliding merge (a merged
        array of the same dimensioning).
        """
        from repro.engine.query import row_zero_bit_counts

        virtual_zeros = row_zero_bit_counts(bits, positions)
        return self._estimates_from_counts(virtual_zeros, self._correction(bits.zero_fraction))

    def estimate_fresh_all(self) -> tuple[list[object], np.ndarray]:
        """Every tracked user and its :meth:`estimate_fresh` value, in intern order.

        :meth:`estimate_fresh_many` over the whole population without the
        per-user membership checks (every interned user is tracked).
        """
        positions = self._arena.all_positions()
        return self._arena.users(), self._fresh_estimates_for(self._bits, positions)

    def estimates(self) -> dict[object, float]:
        """Return the latest cached estimate of every observed user."""
        self.settle()
        return self._arena.estimates_dict()

    def memory_bits(self) -> int:
        """Accounted memory of the shared bit array."""
        return self._bits.memory_bits()

    # -- introspection --------------------------------------------------------

    @property
    def max_estimate(self) -> float:
        """Upper end of the usable estimation range, ``m ln m``."""
        return self.m * math.log(self.m)

    @property
    def fill_fraction(self) -> float:
        """Fraction of shared bits already set to one."""
        return 1.0 - self._bits.zero_fraction
