"""vHLL — virtual HyperLogLog (Xiao, Chen, Chen & Ling, SIGMETRICS 2015).

vHLL compresses one virtual HLL sketch per user into a single shared array of
``M`` registers.  User ``s``'s virtual sketch is the ``m`` registers
``R[f_1(s)], ..., R[f_m(s)]``; an arriving pair (s, d) updates register
``R[f_{h(d)}(s)]`` with the Geometric(1/2) rank of the item, exactly like a
private HLL would.

The estimator removes the contribution of "noisy" registers (registers shared
with other users) by subtracting the global average:

    n_hat_s = M/(M-m) * ( alpha_m m^2 / sum_i 2^-R[f_i(s)]  -  m/M * alpha_M M^2 / sum_j 2^-R[j] )

with the usual small-range switch to linear counting on the virtual sketch
when the raw harmonic estimate is below ``2.5 m``.

Complexity: O(m) per estimate refresh (Challenge 2 of the paper); the
streaming wrapper refreshes only the arriving user's estimate per update,
matching the evaluation protocol of Section V-B.  The scalar ``update``
refreshes it on every pair.  The batch path keeps the same values but
defers them: it commits a batch's register raises and logs them, and the
first read of the cached estimates works out every owed value in one pass
over the log (:meth:`VirtualHLL.settle`).  A read therefore costs O(m) per
user that arrived since the previous read; the served sliding merge reads
the array, not the cached values, so it does not pay it.  The one settle
on the ingest path is the batch path's own: it settles once the log holds
``M`` raises, so the log stays O(M) however long reads stay away, and an
epoch of many raises pays one settle every ``M`` of them.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from repro.core.base import CardinalityEstimator
from repro.engine.base import BatchUpdatable, hot_path
from repro.engine.encoding import EncodedBatch
from repro.engine.kernels import (
    last_occurrence,
    map_distinct,
    register_change_events,
    row_blocks,
    touched_query_positions,
    value_after_events,
)
from repro.engine.query import row_harmonic_sums, row_register_values, row_zero_counts
from repro.hashing import HashFamily, geometric_rank, hash64, splitmix64, splitmix64_array
from repro.hashing.geometric import geometric_rank_array
from repro.sketches.hll import alpha_m
from repro.sketches.registers import RegisterArray
from repro.state import UserArena


@functools.lru_cache(maxsize=None)
def _linear_terms(m: int) -> np.ndarray:
    """The linear-counting local term ``m ln(m / z)`` for every count z in 0..m.

    Entry 0 is never selected (linear counting needs a zero register).
    Built with ``math.log`` once per ``m``; the scalar and the array closed
    forms both read it, so they cannot disagree.
    """
    terms = [math.nan] + [m * math.log(m / zeros) for zeros in range(1, m + 1)]
    table = np.array(terms, dtype=np.float64)
    table.flags.writeable = False
    return table


class _Raises(NamedTuple):
    """One batch's register raises, as the pending log keeps them."""

    registers: np.ndarray
    #: Arrival time of each raise (ascending).
    times: np.ndarray
    #: Each register's value just before its raise, and the raised value.
    old: np.ndarray
    new: np.ndarray
    #: The array's harmonic sum and zero count before the first raise, then
    #: after each raise (one longer than ``registers``).
    harmonic: np.ndarray
    zeros: np.ndarray


class VirtualHLL(BatchUpdatable, CardinalityEstimator):
    """Register-sharing virtual-HLL estimator: ``M`` shared registers, ``m`` per user."""

    name = "vHLL"

    def __init__(
        self,
        registers: int,
        virtual_size: int = 1024,
        register_width: int = 5,
        seed: int = 0,
    ) -> None:
        if registers <= 0:
            raise ValueError("registers must be positive")
        if virtual_size <= 0:
            raise ValueError("virtual_size must be positive")
        if virtual_size >= registers:
            raise ValueError("virtual_size must be smaller than the number of registers")
        self.M = registers
        self.m = virtual_size
        self.seed = seed
        self._registers = RegisterArray(registers, width=register_width)
        self._family = HashFamily(virtual_size, registers, seed=seed ^ 0x711)
        self._alpha_m = alpha_m(virtual_size)
        self._alpha_M = alpha_m(registers)
        # Columnar per-user state: cached estimates plus the m physical
        # register positions per user (dense rows up to the auto limit,
        # recomputed from the 8-byte key fold beyond it).
        self._arena = UserArena(m=virtual_size, family=self._family, owner=self.name)

    # -- internal helpers -----------------------------------------------------

    def _estimate_from_sketch(self, positions: np.ndarray) -> float:
        """Recompute the vHLL estimate of the user at ``positions`` (O(m)).

        The scalar path's form: one user's ``m`` register values against
        the whole array's current statistics.
        """
        values = self._registers.get_many(positions)
        virtual_harmonic = float(np.sum(np.exp2(-values.astype(np.float64))))
        virtual_zeros = int(np.count_nonzero(values == 0))
        global_term = self._global_term(self._registers.harmonic_sum, self._registers.zeros)
        return self._estimate_from_stats(virtual_harmonic, virtual_zeros, global_term)

    def _estimate_from_stats(
        self, virtual_harmonic: float, virtual_zeros: int, global_term: float
    ) -> float:
        """The closed-form estimate from already-reduced per-user statistics.

        :meth:`_estimates_from_stats` is its array form, which the batch and
        fresh paths use; the two agree bit-for-bit.
        """
        raw_local = self._alpha_m * self.m * self.m / virtual_harmonic
        if raw_local < 2.5 * self.m and virtual_zeros > 0:
            raw_local = float(_linear_terms(self.m)[virtual_zeros])
        scale = self.M / (self.M - self.m)
        return max(0.0, scale * (raw_local - global_term))

    def _estimates_from_stats(
        self,
        virtual_harmonic: np.ndarray,
        virtual_zeros: np.ndarray,
        global_term: float | np.ndarray,
    ) -> np.ndarray:
        """:meth:`_estimate_from_stats` over columns of per-user statistics.

        ``global_term`` is one value for every user, or a column with each
        user's own.  The same float operations element-wise, the same
        linear-counting table, and ``np.where(x > 0.0, x, 0.0)`` for
        ``max(0.0, x)`` — every element is bit-identical to the scalar
        formula.
        """
        raw_local = self._alpha_m * self.m * self.m / virtual_harmonic
        linear = (raw_local < 2.5 * self.m) & (virtual_zeros > 0)
        raw_local = np.where(linear, _linear_terms(self.m)[virtual_zeros], raw_local)
        scale = self.M / (self.M - self.m)
        total = scale * (raw_local - global_term)
        return np.where(total > 0.0, total, 0.0)

    def _global_term(self, harmonic_sum: float, zeros: int) -> float:
        """The noise term: ``m/M`` times the whole-array estimate."""
        return (self.m / self.M) * self._global_estimate_from(harmonic_sum, zeros)

    def _global_estimate_from(self, harmonic_sum: float, zeros: int) -> float:
        """HLL estimate of the total distinct-pair count over the whole array.

        Taken from the array's two sufficient statistics.  The small-range
        (linear counting) switch matters here: on a lightly loaded array the
        raw harmonic estimator overestimates by several times, which would
        push every light user's corrected estimate to zero.
        """
        raw_global = self._alpha_M * self.M * self.M / harmonic_sum
        if raw_global < 2.5 * self.M and zeros > 0:
            return self.M * math.log(self.M / zeros)
        return raw_global

    def _intern_batch(self, batch: EncodedBatch) -> np.ndarray:
        """Arena codes of a batch's unique users (interned in batch order)."""
        return self._arena.intern_many(batch.user_keys(), batch.user_hashes)

    # -- streaming API --------------------------------------------------------

    def update(self, user: object, item: object) -> float:
        """Process one (user, item) pair; refresh only this user's estimate (O(m)).

        Settles first: the log the deferred estimates read does not record
        this path's raises.
        """
        self.settle()
        code = self._arena.intern(user)
        positions = self._arena.positions_row(code)
        item_hash = hash64(item, seed=self.seed ^ 0xD2)
        bucket = item_hash % self.m
        # Remix before ranking so the bucket choice does not bias the rank.
        rank = geometric_rank(splitmix64(item_hash), max_rank=self._registers.max_value)
        self._registers.update(int(positions[bucket]), rank)
        estimate = self._estimate_from_sketch(positions)
        self._arena.set_estimate(code, estimate)
        return estimate

    @hot_path
    def update_encoded(self, batch: EncodedBatch) -> None:
        """Vectorised engine path: process a whole encoded batch at once.

        Bit-identical to the scalar loop.  As with CSE, a user's cached
        estimate must reflect the shared array **as of that user's last
        arrival**.  The batch path detects the register-raising events with
        the shared prefix-maximum kernel and replays only those (rare)
        events through the register array, so the incrementally-maintained
        harmonic sum takes exactly the scalar value trajectory.  It then
        defers the estimates (:meth:`UserArena.defer`): it records each
        batch user's last arrival and logs the raises with that trajectory
        for :meth:`settle`, which it runs itself once the log holds ``M``
        raises.
        """
        count = len(batch)
        if count == 0:
            return
        arena_codes = self._intern_batch(batch)
        item_hashes = batch.item_hashes_with_seed(self.seed ^ 0xD2)
        buckets = (item_hashes % np.uint64(self.m)).astype(np.int64)
        ranks = geometric_rank_array(
            splitmix64_array(item_hashes), max_rank=self._registers.max_value
        )
        register_indices = self._arena.positions_at(arena_codes, batch.user_codes, buckets)

        harmonic_at_start = self._registers.harmonic_sum
        zeros_at_start = self._registers.zeros
        positions, event_registers, old_values, event_ranks = register_change_events(
            register_indices, ranks, self._registers.get_many(register_indices)
        )
        # Replay the events in arrival order through the shared array; the
        # per-event snapshots give the global statistics at any arrival.
        harmonic_after_event, zeros_after_event = self._registers.apply_max_updates(
            event_registers, event_ranks
        )
        start = self._arena.clock
        raises = _Raises(
            event_registers,
            start + positions,
            old_values,
            event_ranks,
            np.concatenate(([harmonic_at_start], harmonic_after_event)),
            np.concatenate(([zeros_at_start], zeros_after_event)),
        )
        self._arena.defer(
            arena_codes,
            start + last_occurrence(batch.user_codes, batch.n_users),
            count,
            raises,
            int(positions.size),
        )
        if self._arena.pending_events >= self.M:
            self.settle()

    def settle(self) -> None:
        """Work out every cached estimate :meth:`update_encoded` deferred.

        Each owed user's estimate reads the shared array as of its last
        arrival, by time-travel over the raises logged since the previous
        settle.  The array as the log found it is the current one with each
        raised register put back to its value before its first raise; a
        user's ``m`` register values at its arrival replay the raises it saw
        onto that (only at positions whose register was raised), and the
        global statistics are the trajectory's entry after the last raise it
        saw.  The closed form runs over those rows (the global term once per
        distinct global state), in blocks of users of bounded size: the same
        integers and floats as the scalar path, bit for bit.
        """
        pending = self._arena.take_pending()
        if pending is None:
            return
        codes, arrivals, log = pending
        registers = np.concatenate([raises.registers for raises in log])
        times = np.concatenate([raises.times for raises in log])
        # The global statistics before the first raise, then after each.
        harmonic = np.concatenate([log[0].harmonic[:1], *[raises.harmonic[1:] for raises in log]])
        zeros = np.concatenate([log[0].zeros[:1], *[raises.zeros[1:] for raises in log]])
        # Raises each user saw by its last arrival (the times ascend).
        seen = np.searchsorted(times, arrivals, side="right")
        global_terms = map_distinct(
            seen,
            lambda raised: self._global_term(float(harmonic[raised]), int(zeros[raised])),
        )
        # Raises sorted by (register, arrival), timed by 1-based ordinal: a
        # user saw exactly the raises whose ordinal is at most its count.
        order = np.argsort(registers, kind="stable")
        registers_sorted, ordinals = registers[order], order + 1
        raised_to = np.concatenate([raises.new for raises in log])[order]
        old = np.concatenate([raises.old for raises in log])[order]
        first = np.flatnonzero(np.diff(registers_sorted, prepend=-1))
        at_log_start = self._registers.values.copy()
        at_log_start[registers_sorted[first]] = old[first]
        for block in row_blocks(codes.size, self.m):
            flat_positions = self._arena.positions_rows(codes[block]).ravel()
            values_then = at_log_start[flat_positions].astype(np.int64)
            touched = touched_query_positions(flat_positions, registers, self.M)
            if touched.size:
                values_then[touched] = value_after_events(
                    flat_positions[touched],
                    seen[block][touched // self.m],
                    registers_sorted,
                    ordinals,
                    raised_to,
                    values_then[touched],
                    horizon=registers.size + 1,
                )
            values_then = values_then.reshape(-1, self.m)
            self._arena.set_estimates(
                codes[block],
                self._estimates_from_stats(
                    row_harmonic_sums(values_then),
                    row_zero_counts(values_then),
                    global_terms[block],
                ),
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
        user's registers (scalar update, batch update, snapshot restore)
        interns it first, so interned means tracked.
        """
        code = self._arena.lookup(user)
        if code < 0:
            return 0.0
        return self._estimate_from_sketch(self._arena.positions_row(code))

    def estimate_fresh_many(self, users):
        """Batch :meth:`estimate_fresh` in input order, decoded vectorised.

        One ``(n_users, m)`` register gather plus axis-1 harmonic-sum and
        zero-count reductions replace the per-user O(m) scans; the shared
        global correction term is evaluated once (it is user-independent)
        and the closed form is :meth:`_estimates_from_stats`, the array form
        of the scalar formula, so results are bit-identical to per-user
        :meth:`estimate_fresh`.
        """
        codes = self._arena.lookup_many(list(users))
        tracked = np.flatnonzero(codes >= 0)
        results = np.zeros(codes.size, dtype=np.float64)
        if tracked.size:
            positions = self._arena.positions_rows(codes[tracked])
            results[tracked] = self._fresh_estimates_for(self._registers, positions)
        return results.tolist()

    def _fresh_estimates_for(
        self, registers: RegisterArray, positions: np.ndarray
    ) -> np.ndarray:
        """Estimates of the users with ``(n, m)`` ``positions``, read off ``registers``.

        The whole-population decode shared by :meth:`estimate_fresh_many`
        (this estimator's own array) and the cached sliding merge (a merged
        array of the same dimensioning).
        """
        values = row_register_values(registers, positions)
        return self._estimates_from_stats(
            row_harmonic_sums(values),
            row_zero_counts(values),
            self._global_term(registers.harmonic_sum, registers.zeros),
        )

    def estimate_fresh_all(self) -> tuple[list[object], np.ndarray]:
        """Every tracked user and its :meth:`estimate_fresh` value, in intern order.

        :meth:`estimate_fresh_many` over the whole population without the
        per-user membership checks (every interned user is tracked).
        """
        positions = self._arena.all_positions()
        return self._arena.users(), self._fresh_estimates_for(self._registers, positions)

    def estimates(self) -> dict[object, float]:
        """Return the latest cached estimate of every observed user."""
        self.settle()
        return self._arena.estimates_dict()

    def memory_bits(self) -> int:
        """Accounted memory of the shared register array."""
        return self._registers.memory_bits()

    # -- introspection --------------------------------------------------------

    @property
    def fill_harmonic_sum(self) -> float:
        """Harmonic sum of the whole shared array (diagnostic)."""
        return self._registers.harmonic_sum
