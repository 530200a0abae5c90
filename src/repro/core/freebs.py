"""FreeBS — parameter-free bit sharing (paper Algorithm 1).

A single bit array ``B`` of ``M`` bits is shared by *all* users.  Every
arriving (user, item) pair ``e`` is hashed uniformly into ``B`` with
``h*(e)``.  If the chosen bit is already one the pair is discarded (it is
either a duplicate or a collision); if the bit flips from zero to one, the
arriving user's running estimate is increased by ``1 / q_B(t)``, where
``q_B(t) = m0 / M`` is the fraction of zero bits *just before* the update —
i.e. the probability that a brand-new pair would have changed the array.
This is a Horvitz–Thompson estimator, and Theorem 1 of the paper shows it is
unbiased with variance ``sum_i E[1/q_B(i)] - n_s``.

Properties reproduced here:

* O(1) work per arriving pair (one hash, one bit probe, O(1) bookkeeping);
* no per-user parameter ``m`` to tune — users implicitly use more bits as
  their cardinality grows;
* estimation range ``[0, M ln M]`` (the estimate keeps growing until the
  array is full);
* anytime estimates: ``estimate(user)`` is valid after every update.
"""

from __future__ import annotations


import numpy as np

from repro.core.base import CardinalityEstimator
from repro.engine.base import BatchUpdatable, hot_path
from repro.engine.encoding import EncodedBatch, seed_mix
from repro.engine.kernels import bit_change_events
from repro.hashing import hash_pair, splitmix64_array
from repro.sketches.bitarray import BitArray
from repro.state import UserArena


class FreeBS(BatchUpdatable, CardinalityEstimator):
    """Parameter-free bit-sharing estimator over a shared ``M``-bit array.

    Parameters
    ----------
    memory_bits:
        Total number of shared bits ``M``.
    seed:
        Seed of the pair hash ``h*``; runs with different seeds are
        independent repetitions.
    """

    name = "FreeBS"

    def __init__(self, memory_bits: int, seed: int = 0) -> None:
        if memory_bits <= 0:
            raise ValueError("memory_bits must be positive")
        self.M = memory_bits
        self.seed = seed
        self._bits = BitArray(memory_bits)
        # Running HT sums as one arena column (no folds, no positions).
        self._arena = UserArena(owner=self.name)
        self._pairs_processed = 0
        self._pairs_sampled = 0

    # -- streaming API --------------------------------------------------------

    def update(self, user: object, item: object) -> float:
        """Process one (user, item) pair in O(1); return the user's estimate."""
        self._pairs_processed += 1
        zero_bits_before = self._bits.zeros
        index = hash_pair(user, item, seed=self.seed) % self.M
        if self._bits.set_bit(index):
            self._pairs_sampled += 1
            # q_B(t) = fraction of zero bits before this update.
            q = zero_bits_before / self.M
            return self._arena.add_estimate(user, 1.0 / q)
        # Make sure every observed user is reported, even if all its pairs
        # were discarded (possible for tiny users late in a full array).
        return self._arena.add_estimate(user, 0.0)

    @hot_path
    def update_encoded(self, batch: EncodedBatch) -> None:
        """Vectorised engine path: process a whole encoded batch at once.

        Bit-identical to feeding the batch pair-by-pair through
        :meth:`update`: change events are detected with one vectorised pass,
        ``q_B``'s trajectory is reconstructed from the batch-start zero count
        (it drops by exactly one zero bit per event), and each increment is
        computed with the same ``1 / (zeros / M)`` expression — same
        floating-point roundings — before being added to the event's user
        in arrival order (:meth:`~repro.state.UserArena.accumulate`).
        """
        count = len(batch)
        if count == 0:
            return
        self._pairs_processed += count
        indices = (
            splitmix64_array(batch.pair_keys() ^ seed_mix(self.seed)) % np.uint64(self.M)
        ).astype(np.int64)
        events = bit_change_events(indices, ~self._bits.get_bits(indices))

        # Every batch user is reported, in first-appearance order.
        codes = self._arena.intern_many(batch.user_keys())
        self._arena.publish(codes)
        if events.size == 0:
            return

        zeros_before = self._bits.zeros - np.arange(events.size)
        increments = 1.0 / (zeros_before / self.M)
        self._arena.accumulate(codes[batch.user_codes[events]], increments)

        self._bits.set_new_bits(indices[events])
        self._pairs_sampled += int(events.size)

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
        """Accounted memory of the shared bit array."""
        return self._bits.memory_bits()

    # -- introspection --------------------------------------------------------

    @property
    def fill_fraction(self) -> float:
        """Fraction of shared bits already set to one."""
        return 1.0 - self._bits.zero_fraction

    @property
    def change_probability(self) -> float:
        """Current ``q_B``: probability a new pair changes the array."""
        return self._bits.zero_fraction

    @property
    def pairs_processed(self) -> int:
        """Total number of pairs seen (including duplicates)."""
        return self._pairs_processed

    @property
    def pairs_sampled(self) -> int:
        """Number of pairs that flipped a bit (i.e. were 'sampled')."""
        return self._pairs_sampled

    @property
    def max_estimate(self) -> float:
        """Upper end of the usable estimation range, ``M ln M``."""
        import math

        return self.M * math.log(self.M)

    def total_cardinality_estimate(self) -> float:
        """Estimate of the total number of distinct pairs, ``-M ln(U/M)``.

        This is simply the LPC estimator applied to the shared array; it is
        used by the super-spreader detector to turn the relative threshold
        ``Delta`` into an absolute cardinality threshold without outside help.
        """
        import math

        zeros = self._bits.zeros
        if zeros == 0:
            return self.max_estimate
        return -self.M * math.log(zeros / self.M)
