"""User-partitioned sharding.

A :class:`ShardedEstimator` splits the user population across ``K``
independent sub-sketches by hashing the user id: each shard is a full
estimator over ``1/K``-th of the users, shards never interact, and the
combined estimates are exactly what each shard would report if it had been
run alone on its slice of the stream (the test-suite asserts this
property).  The registry builds one for ``shards > 1``, which is how
``repro.cli estimate --shards K`` and a sharded monitor's epochs get it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.core.base import CardinalityEstimator
from repro.engine.base import BatchUpdatable, hot_path, supports_batch
from repro.engine.encoding import EncodedBatch, seed_mix
from repro.hashing import MASK64, fold_key, fold_key_array, hash64, splitmix64_array

UserItemPair = tuple[object, object]

#: Salt xor-ed into the routing seed so the shard choice is independent of the
#: hash functions the sub-estimators draw from the same seed.
_SHARD_SALT = 0x5AD5

EstimatorFactory = Callable[[int], CardinalityEstimator]


@hot_path
def route_user_hashes(user_hashes: np.ndarray, shards: int, seed: int) -> np.ndarray:
    """Shard ids for raw 64-bit user folds under the estimator's routing.

    This is the one vectorised routing function: the estimator's batch
    splitting derives shard ownership from it, bit-identical to the scalar
    :meth:`ShardedEstimator.shard_of`.
    """
    route_seed = (seed ^ _SHARD_SALT) & MASK64
    mixed = splitmix64_array(user_hashes ^ seed_mix(route_seed))
    return (mixed % np.uint64(shards)).astype(np.int64)


class ShardedEstimator(BatchUpdatable, CardinalityEstimator):
    """Partition users across ``K`` independent sub-estimators.

    Parameters
    ----------
    factory:
        Callable building the estimator of shard ``k`` (called with ``k``).
        Shards must be independent instances; they may share a seed.
    shards:
        Number of shards ``K``.
    seed:
        Seed of the user -> shard routing hash.
    """

    name = "Sharded"

    def __init__(self, factory: EstimatorFactory, shards: int, seed: int = 0) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.num_shards = shards
        self.seed = seed
        self._route_seed = (seed ^ _SHARD_SALT) & MASK64
        self._shards: list[CardinalityEstimator] = [factory(k) for k in range(shards)]
        self._shard_pairs: list[int] = [0] * shards
        base_name = getattr(self._shards[0], "name", "estimator")
        self.name = f"Sharded[{shards}x{base_name}]"

    # -- routing --------------------------------------------------------------

    def shard_of(self, user: object) -> int:
        """Return the shard index that owns ``user`` (deterministic in the id)."""
        return hash64(user, seed=self._route_seed) % self.num_shards

    def _shards_from_hashes(self, user_hashes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shard_of` over raw user folds (bit-identical)."""
        return route_user_hashes(user_hashes, self.num_shards, self.seed)

    def shards_of(self, users: Sequence[object]) -> np.ndarray:
        """Vectorised :meth:`shard_of`: the owner shard of every user, in order."""
        try:
            array = np.asarray(users)
        except ValueError:  # ragged keys (e.g. mixed-length tuples)
            array = None
        if array is not None and array.ndim == 1 and array.dtype.kind in "iu":
            folds = fold_key_array(array)
        else:
            folds = np.array([fold_key(user) for user in users], dtype=np.uint64)
        return self._shards_from_hashes(folds)

    # -- streaming API --------------------------------------------------------

    def update(self, user: object, item: object) -> float:
        """Route one pair to its owner shard; return the user's estimate."""
        shard = self.shard_of(user)
        self._shard_pairs[shard] += 1
        return self._shards[shard].update(user, item)

    def estimate(self, user: object) -> float:
        """Return the owner shard's estimate of ``user``."""
        return self._shards[self.shard_of(user)].estimate(user)

    def estimate_many(self, users: Iterable[object]) -> list[float]:
        """Batch estimates in input order: route once, query each shard once.

        Users are routed with the same vectorised hash as :meth:`shard_of`,
        grouped per shard, answered with the shard's own ``estimate_many``
        and scattered back — bit-identical to the per-user loop.
        """
        users = list(users)
        if not users:
            return []
        shard_ids = self.shards_of(users)
        results: list[float] = [0.0] * len(users)
        for shard_index in np.unique(shard_ids):
            positions = np.nonzero(shard_ids == shard_index)[0].tolist()
            values = self._shards[int(shard_index)].estimate_many(
                [users[position] for position in positions]
            )
            for position, value in zip(positions, values):
                results[position] = value
        return results

    def estimates(self) -> dict[object, float]:
        """Union of the shard estimates (user sets are disjoint by routing)."""
        combined: dict[object, float] = {}
        for shard in self._shards:
            combined.update(shard.estimates())
        return combined

    def settle(self) -> None:
        """Settle every shard's deferred estimates."""
        for shard in self._shards:
            shard.settle()

    def memory_bits(self) -> int:
        """Total accounted memory across all shards."""
        return sum(shard.memory_bits() for shard in self._shards)

    # -- batch path -----------------------------------------------------------

    def update_batch(self, pairs: Iterable[UserItemPair]) -> None:
        """Partition a batch across shards; use sub-batch paths when available."""
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        if not pairs:
            return
        if all(supports_batch(shard) for shard in self._shards):
            self.update_encoded(EncodedBatch.from_pairs(pairs))
            return
        routed: dict[int, list[UserItemPair]] = {}
        for user, item in pairs:
            routed.setdefault(self.shard_of(user), []).append((user, item))
        for shard_index, shard_pairs in routed.items():
            self._shard_pairs[shard_index] += len(shard_pairs)
            shard = self._shards[shard_index]
            if supports_batch(shard):
                shard.update_batch(shard_pairs)
            else:
                for user, item in shard_pairs:
                    shard.update(user, item)

    def update_encoded(self, batch: EncodedBatch) -> None:
        """Split an encoded batch by shard and delegate to the sub-estimators."""
        user_shards = self._shards_from_hashes(batch.user_hashes)
        pair_shards = user_shards[batch.user_codes]
        for shard_index in np.unique(pair_shards):
            index = int(shard_index)
            sub_batch = batch.subset(pair_shards == shard_index)
            self._shard_pairs[index] += len(sub_batch)
            self._shards[index].update_encoded(sub_batch)

    # -- introspection --------------------------------------------------------

    @property
    def shards(self) -> list[CardinalityEstimator]:
        """The sub-estimators, indexed by shard id."""
        return list(self._shards)

    @property
    def shard_pair_counts(self) -> list[int]:
        """Pairs routed to each shard so far (duplicates included)."""
        return list(self._shard_pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}(pairs={sum(self._shard_pairs)})"
