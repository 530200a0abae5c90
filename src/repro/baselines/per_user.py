"""Per-user sketch baselines: one private LPC or HLL++ sketch per user.

The paper's LPC and HLL++ baselines give every user its own small sketch,
with the per-user size chosen so that the *total* memory across an expected
user population matches the shared-memory budget ``M`` used by the other
methods (Section V-B: "under the same memory size M, we let LPC have M/|S|
bits and HLL++ have M/(6|S|) 6-bit registers for each user").

Because the user population is not known in advance in a true streaming
setting, the wrapper takes ``expected_users`` explicitly; the experiment
harness passes the dataset's user count, mirroring the paper's setup.
"""

from __future__ import annotations

from collections.abc import Callable


import numpy as np

from repro.core.base import CardinalityEstimator
from repro.engine.base import BatchUpdatable
from repro.engine.encoding import EncodedBatch
from repro.engine.kernels import grouped_indices
from repro.sketches.hllpp import HyperLogLogPlusPlus
from repro.sketches.lpc import LinearProbabilisticCounter
from repro.state import UserArena


class _PerUserSketchEstimator(BatchUpdatable, CardinalityEstimator):
    """Shared machinery for the per-user sketch baselines.

    ``seed`` must be the hash seed the factory's sketches use for
    ``add(item)``: the batch path pre-hashes items with it, so a mismatch
    would silently break the scalar/batch bit-identity contract.
    """

    def __init__(
        self, sketch_factory: Callable[[], object], sketch_bits: int, seed: int
    ) -> None:
        self._sketch_factory = sketch_factory
        self._sketch_bits = sketch_bits
        self.seed = seed
        self._sketches: dict[object, object] = {}
        # Each user's latest estimate as one arena column (no folds, no
        # positions), interned in the same first-seen order as ``_sketches``.
        self._arena = UserArena(owner=self.name)

    def update(self, user: object, item: object) -> float:
        """Insert ``item`` into ``user``'s private sketch; return its estimate."""
        sketch = self._sketches.get(user)
        if sketch is None:
            sketch = self._sketch_factory()
            self._sketches[user] = sketch
        sketch.add(item)
        estimate = float(sketch.estimate())
        self._arena.set_estimate(self._arena.intern(user), estimate)
        return estimate

    def update_encoded(self, batch: EncodedBatch) -> None:
        """Vectorised engine path: process a whole encoded batch at once.

        Private sketches only ever see their own user's items, so a user's
        cached estimate after a batch — the estimate at its last arrival —
        equals the estimate after *all* of its batch items.  The batch path
        therefore groups pairs by user, bulk-inserts the pre-hashed items,
        and refreshes each touched user's estimate exactly once instead of
        once per pair (the scalar path's O(sketch) refresh per update is the
        dominant cost).  Results are bit-identical to the scalar loop.
        """
        if len(batch) == 0:
            return
        hashed_items = batch.item_hashes_with_seed(self.seed)
        estimates = np.empty(batch.n_users, dtype=np.float64)
        for code, positions in grouped_indices(batch.user_codes, batch.n_users):
            user = batch.users[code]
            sketch = self._sketches.get(user)
            if sketch is None:
                sketch = self._sketch_factory()
                self._sketches[user] = sketch
            self._add_hashed_batch(sketch, hashed_items[positions])
            estimates[code] = sketch.estimate()
        # Codes ascend in first-appearance order, the order the loop above
        # added new users to ``_sketches``.
        self._arena.set_estimates(self._arena.intern_many(batch.users), estimates)

    def _add_hashed_batch(self, sketch: object, hashed_items: np.ndarray) -> None:
        """Insert pre-hashed items into one private sketch (overridable)."""
        for value in hashed_items.tolist():
            sketch.add_hashed(value)

    def estimate(self, user: object) -> float:
        """Return the latest estimate for ``user`` (0.0 for unseen users)."""
        return self._arena.estimate_of(user)

    def estimate_many(self, users):
        """Batch estimates in input order, served from the per-user cache.

        Private sketches refresh their user's cached estimate on every
        insert, so the cache *is* the fresh estimate — one gather suffices.
        """
        return self._arena.estimate_column(users).tolist()

    def estimates(self) -> dict[object, float]:
        """Return the latest estimate of every observed user."""
        return self._arena.estimates_dict()

    def memory_bits(self) -> int:
        """Accounted memory: per-user sketch size times number of users seen."""
        return self._sketch_bits * len(self._sketches)

    @property
    def users_allocated(self) -> int:
        """Number of users that have been allocated a private sketch."""
        return len(self._sketches)


class PerUserLPC(_PerUserSketchEstimator):
    """One private LPC bitmap per user.

    Parameters
    ----------
    memory_bits:
        Global memory budget ``M`` shared (by even division) across users.
    expected_users:
        Expected user population ``|S|``; each user gets ``M / |S|`` bits.
    bits_per_user:
        Alternatively, set the per-user bitmap size directly (overrides the
        budget division when provided).
    """

    name = "LPC"

    def __init__(
        self,
        memory_bits: int,
        expected_users: int,
        bits_per_user: int | None = None,
        seed: int = 0,
    ) -> None:
        if bits_per_user is None:
            if expected_users <= 0:
                raise ValueError("expected_users must be positive")
            bits_per_user = max(8, memory_bits // expected_users)
        self.bits_per_user = bits_per_user
        super().__init__(
            sketch_factory=lambda: LinearProbabilisticCounter(bits_per_user, seed=seed),
            sketch_bits=bits_per_user,
            seed=seed,
        )

    def _add_hashed_batch(self, sketch: object, hashed_items: np.ndarray) -> None:
        """LPC bitmaps support fully vectorised bulk insertion."""
        sketch.add_hashed_many(hashed_items)


class PerUserHLLPP(_PerUserSketchEstimator):
    """One private HLL++ sketch (6-bit registers) per user.

    Parameters
    ----------
    memory_bits:
        Global memory budget ``M`` shared (by even division) across users.
    expected_users:
        Expected user population ``|S|``; each user gets ``M / (6 |S|)``
        six-bit registers.
    registers_per_user:
        Alternatively, set the per-user register count directly.
    """

    name = "HLL++"

    def __init__(
        self,
        memory_bits: int,
        expected_users: int,
        registers_per_user: int | None = None,
        register_width: int = 6,
        seed: int = 0,
    ) -> None:
        if registers_per_user is None:
            if expected_users <= 0:
                raise ValueError("expected_users must be positive")
            registers_per_user = max(4, memory_bits // (register_width * expected_users))
        self.registers_per_user = registers_per_user
        self.register_width = register_width
        super().__init__(
            sketch_factory=lambda: HyperLogLogPlusPlus(
                registers_per_user, width=register_width, seed=seed
            ),
            sketch_bits=registers_per_user * register_width,
            seed=seed,
        )
