"""FreeRS — parameter-free register sharing (paper Algorithm 2).

A single array of ``M`` HLL registers is shared by *all* users.  Every
arriving (user, item) pair ``e`` is hashed to a register ``h*(e)`` and a
Geometric(1/2) rank ``rho*(e)``.  If the rank does not exceed the register the
pair is discarded; otherwise the register is raised and the arriving user's
running estimate is increased by ``1 / q_R(t)`` where

    q_R(t) = (sum_j 2^-R[j]) / M

is the probability that a brand-new pair would change some register at time
``t``.  Theorem 2 of the paper shows the estimator is unbiased with variance
``sum_i E[1/q_R(i)] - n_s``.

Compared with FreeBS, FreeRS trades a slightly higher per-update cost (one
extra rank computation) and a coarser early-stream sampling probability for a
much larger estimation range (``~2^(2^w)`` with ``w``-bit registers), which is
why the paper finds FreeBS better for users that appear early / have small
cardinalities and FreeRS better for heavy users (Section IV-C).
"""

from __future__ import annotations


import numpy as np

from repro.core.base import CardinalityEstimator
from repro.engine.base import BatchUpdatable, hot_path
from repro.engine.encoding import EncodedBatch, seed_mix
from repro.engine.kernels import register_change_events
from repro.hashing import geometric_rank, hash_pair, splitmix64, splitmix64_array
from repro.hashing.geometric import geometric_rank_array
from repro.sketches.registers import RegisterArray
from repro.state import UserArena


class FreeRS(BatchUpdatable, CardinalityEstimator):
    """Parameter-free register-sharing estimator over ``M`` shared registers.

    Parameters
    ----------
    registers:
        Number of shared registers ``M``.
    register_width:
        Width of each register in bits (the paper uses 5).
    seed:
        Seed of the pair hash; runs with different seeds are independent.
    """

    name = "FreeRS"

    def __init__(self, registers: int, register_width: int = 5, seed: int = 0) -> None:
        if registers <= 0:
            raise ValueError("registers must be positive")
        self.M = registers
        self.seed = seed
        self._registers = RegisterArray(registers, width=register_width)
        # Running HT sums as one arena column (no folds, no positions).
        self._arena = UserArena(owner=self.name)
        self._pairs_processed = 0
        self._pairs_sampled = 0

    # -- streaming API --------------------------------------------------------

    def update(self, user: object, item: object) -> float:
        """Process one (user, item) pair in O(1); return the user's estimate."""
        self._pairs_processed += 1
        hash_value = hash_pair(user, item, seed=self.seed)
        index = hash_value % self.M
        # Derive the rank from an independent remix of the pair hash so that
        # the register choice and the rank are (approximately) independent.
        rank = geometric_rank(splitmix64(hash_value), max_rank=self._registers.max_value)
        q_before = self._registers.harmonic_sum / self.M
        if self._registers.update(index, rank):
            self._pairs_sampled += 1
            return self._arena.add_estimate(user, 1.0 / q_before)
        return self._arena.add_estimate(user, 0.0)

    @hot_path
    def update_encoded(self, batch: EncodedBatch) -> None:
        """Vectorised engine path: process a whole encoded batch at once.

        Bit-identical to the scalar loop: hashing, register choice and rank
        derivation are vectorised, change events are found with the shared
        per-register prefix-maximum kernel, and the (rare) events themselves
        are replayed sequentially through :meth:`RegisterArray.update` so the
        incrementally-maintained harmonic sum — and therefore every
        ``1 / q_R`` increment — accumulates in exactly the scalar order.
        The increments then go to their users in arrival order
        (:meth:`~repro.state.UserArena.accumulate`).
        """
        count = len(batch)
        if count == 0:
            return
        self._pairs_processed += count
        hashes = splitmix64_array(batch.pair_keys() ^ seed_mix(self.seed))
        indices = (hashes % np.uint64(self.M)).astype(np.int64)
        ranks = geometric_rank_array(
            splitmix64_array(hashes), max_rank=self._registers.max_value
        )
        positions, event_registers, _, event_ranks = register_change_events(
            indices, ranks, self._registers.get_many(indices)
        )

        # Every batch user is reported, in first-appearance order.
        codes = self._arena.intern_many(batch.user_keys())
        self._arena.publish(codes)
        if positions.size == 0:
            return

        harmonic_before = np.empty(positions.size, dtype=np.float64)
        harmonic_before[0] = self._registers.harmonic_sum
        harmonic_trajectory, _ = self._registers.apply_max_updates(
            event_registers, event_ranks
        )
        harmonic_before[1:] = harmonic_trajectory[:-1]
        increments = 1.0 / (harmonic_before / self.M)
        self._arena.accumulate(codes[batch.user_codes[positions]], increments)
        self._pairs_sampled += int(positions.size)

    def estimate(self, user: object) -> float:
        """Return the current estimate of ``user`` (0.0 for unseen users)."""
        return self._arena.estimate_of(user)

    def estimate_many(self, users):
        """Batch estimates in input order, served from the running HT sums."""
        return self._arena.estimate_column(users).tolist()

    def estimates(self) -> dict[object, float]:
        """Return the current estimate of every observed user."""
        return self._arena.estimates_dict()

    def memory_bits(self) -> int:
        """Accounted memory of the shared register array."""
        return self._registers.memory_bits()

    # -- introspection --------------------------------------------------------

    @property
    def change_probability(self) -> float:
        """Current ``q_R``: probability a new pair changes some register."""
        return self._registers.harmonic_sum / self.M

    @property
    def pairs_processed(self) -> int:
        """Total number of pairs seen (including duplicates)."""
        return self._pairs_processed

    @property
    def pairs_sampled(self) -> int:
        """Number of pairs that raised a register (i.e. were 'sampled')."""
        return self._pairs_sampled

    def total_cardinality_estimate(self) -> float:
        """HLL-style estimate of the total number of distinct pairs.

        Applies the standard HLL estimator (with small-range linear counting)
        to the shared register array; used by the super-spreader detector to
        resolve the relative threshold ``Delta`` online.
        """
        import math

        from repro.sketches.hll import alpha_m

        raw = alpha_m(self.M) * self.M * self.M / self._registers.harmonic_sum
        if raw < 2.5 * self.M and self._registers.zeros > 0:
            return self.M * math.log(self.M / self._registers.zeros)
        return raw
