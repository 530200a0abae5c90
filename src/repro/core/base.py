"""Common streaming interface shared by every per-user cardinality estimator.

The paper compares six methods (FreeBS, FreeRS, CSE, vHLL, per-user LPC,
per-user HLL++) on exactly the same task: observe a stream of (user, item)
pairs and be able to report, at any time, an estimate of every user's
cardinality.  :class:`CardinalityEstimator` captures that contract so the
experiment harness, the super-spreader detector and the benchmarks can treat
all six methods uniformly.

Implementations must provide:

``update(user, item)``
    Process one (possibly duplicate) user-item pair and return the user's
    *current* cardinality estimate.  This is the anytime-available estimate
    the paper emphasises; for the non-streaming baselines (CSE, vHLL, LPC,
    HLL++) the estimate is recomputed for the arriving user only, mirroring
    the per-user counter trick described in Section V-B of the paper.

``estimate(user)``
    Current estimate for one user (0.0 for never-seen users).

``estimates()``
    Dict of estimates for every observed user.

``memory_bits()``
    Accounted memory of the shared sketch structures (per-user counters are
    excluded, as in the paper's comparison).

``settle()`` (optional)
    Work out any cached estimates the batch path deferred.  CSE and vHLL
    defer them (see their modules) and settle inside every read; callers
    that read an estimator's arena directly (serialization, a whole-object
    merge that keeps the target's cached estimates) call it first.  The
    default has nothing to do.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

UserItemPair = tuple[object, object]


@dataclass
class EstimatorState:
    """Lightweight snapshot of an estimator's progress through a stream."""

    pairs_processed: int = 0
    distinct_pairs_estimate: float = 0.0
    users_tracked: int = 0
    extra: dict[str, float] = field(default_factory=dict)


class CardinalityEstimator(ABC):
    """Abstract base class for streaming per-user cardinality estimators."""

    #: Human-readable name used in reports, tables and plots.
    name: str = "estimator"

    @abstractmethod
    def update(self, user: object, item: object) -> float:
        """Process one (user, item) pair; return the user's current estimate."""

    @abstractmethod
    def estimate(self, user: object) -> float:
        """Return the current cardinality estimate of ``user`` (0.0 if unseen)."""

    @abstractmethod
    def estimates(self) -> dict[object, float]:
        """Return a mapping of every observed user to its current estimate."""

    def estimate_many(self, users: Sequence[object]) -> list[float]:
        """Estimates for many users in input order (0.0 for unseen users).

        Bit-identical to ``[self.estimate(user) for user in users]`` — the
        query-engine contract asserted by the test-suite.  Implementations
        override this with a vectorised path; the default is the scalar loop.
        """
        return [self.estimate(user) for user in users]

    @abstractmethod
    def memory_bits(self) -> int:
        """Return the accounted memory of the shared sketch in bits."""

    def settle(self) -> None:
        """Work out any cached estimates the batch path deferred (none here)."""

    # -- conveniences shared by all implementations ---------------------------

    def process(
        self,
        stream: Iterable[UserItemPair],
        chunk_size: int | None = None,
    ) -> CardinalityEstimator:
        """Consume an entire stream of (user, item) pairs; return ``self``.

        Batch-capable estimators (everything carrying the engine's
        :class:`~repro.engine.base.BatchUpdatable` mixin — all six compared
        methods) consume the stream in vectorised chunks of ``chunk_size``
        pairs; the result is bit-identical to the scalar loop, just faster.
        Estimators without a batch path fall back to pair-by-pair updates.
        """
        from repro.engine.base import process_stream

        return process_stream(self, stream, chunk_size=chunk_size)

    def process_with_snapshots(
        self,
        stream: Iterable[UserItemPair],
        every: int,
    ) -> Iterator[tuple[int, dict[object, float]]]:
        """Yield ``(t, estimates)`` snapshots every ``every`` processed pairs.

        This powers the "over time" experiments (Figure 6): detection quality
        is evaluated on the snapshot estimates, not only at stream end.
        """
        if every <= 0:
            raise ValueError("every must be positive")
        count = 0
        for user, item in stream:
            self.update(user, item)
            count += 1
            if count % every == 0:
                yield count, self.estimates()
        if count % every != 0:
            yield count, self.estimates()

    def state(self) -> EstimatorState:
        """Return a coarse snapshot of progress (overridden where richer info exists)."""
        current = self.estimates()
        return EstimatorState(
            pairs_processed=-1,
            distinct_pairs_estimate=float(sum(current.values())),
            users_tracked=len(current),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(memory_bits={self.memory_bits()})"
