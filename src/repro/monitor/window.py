"""Epoch-rotating windowed estimation over unbounded streams.

A :class:`WindowedEstimator` owns a ring of per-epoch estimator instances,
all built by the same factory (same method, dimensioning and seed).  The
live epoch absorbs arriving pairs; when the epoch boundary is crossed — a
fixed number of pairs (``epoch_pairs``) or a fixed span of the arrival clock
(``epoch_span``) — the epoch is closed and a fresh estimator starts the next
one.  The ring keeps the most recent ``window_epochs`` epochs, so the
estimator answers two query shapes over an unbounded stream with bounded
memory:

* **tumbling** — one epoch's estimates, exactly what a fresh estimator fed
  only that epoch's pairs reports (each epoch *is* such an estimator);
* **sliding** — the union of the last ``k`` epochs, combined with the
  sketch-level merges of :mod:`repro.monitor.merge` (exact for the
  mergeable methods, additive for FreeBS/FreeRS — see there).

Timestamps are optional everywhere: when none are supplied the arrival
clock is the monotonic event index, which makes ``epoch_span=n`` equivalent
to ``epoch_pairs=n`` on a gap-free stream.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.base import CardinalityEstimator
from repro.engine.base import supports_encoded
from repro.engine.encoding import EncodedBatch
from repro.monitor.merge import merge_exactness, merged_copy, merged_estimates

UserItemPair = tuple[object, object]
#: One ingest batch: an encoded batch, or (user, item) pairs.
Batch = EncodedBatch | Iterable[UserItemPair]

_log = obs.get_logger("monitor.window")

EstimatorFactory = Callable[[int], CardinalityEstimator]


@dataclass
class Epoch:
    """One epoch of the ring: a fresh estimator plus its slice's metadata."""

    index: int
    estimator: CardinalityEstimator
    start_time: float | None = None
    end_time: float | None = None
    pairs: int = 0
    closed: bool = False

    def estimates(self) -> dict[object, float]:
        """The epoch's per-user estimates (a tumbling-window query)."""
        return self.estimator.estimates()

    def summary(self) -> dict[str, object]:
        """JSON-ready metadata of the epoch (no estimates)."""
        return {
            "epoch": self.index,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "pairs": self.pairs,
            "closed": self.closed,
        }


class WindowedEstimator:
    """Ring of per-epoch sketches answering tumbling and sliding queries.

    Parameters
    ----------
    factory:
        Builds the estimator of epoch ``i`` (called with ``i``).  Every call
        must produce the same configuration and seed, otherwise the sliding
        merges are refused.
    epoch_pairs:
        Close the live epoch after exactly this many pairs (event-count
        rotation).  Mutually exclusive with ``epoch_span``.
    epoch_span:
        Close the live epoch when a pair arrives at or past
        ``epoch_start + epoch_span`` on the arrival clock (timestamp
        rotation on a grid anchored at the first pair's timestamp).  Gaps
        longer than one span emit empty epochs, so a silent stream ages out
        of the sliding window like it should.
    window_epochs:
        Ring capacity: how many epochs (including the live one) are kept for
        sliding queries.
    strict_timestamps:
        How to treat a pair whose timestamp precedes the latest one already
        ingested (a *regression* — out-of-order delivery, clock skew, or a
        mix of timestamped and untimestamped batches).  ``False`` (default)
        clamps the regressed timestamp to the newest one seen, so the pair
        lands in the **live** epoch instead of silently mis-rotating the
        ring, and counts it in :attr:`regressions`.  ``True`` raises
        ``ValueError`` instead.
    """

    def __init__(
        self,
        factory: EstimatorFactory,
        epoch_pairs: int | None = None,
        epoch_span: float | None = None,
        window_epochs: int = 8,
        strict_timestamps: bool = False,
    ) -> None:
        if (epoch_pairs is None) == (epoch_span is None):
            raise ValueError("set exactly one of epoch_pairs or epoch_span")
        if epoch_pairs is not None and epoch_pairs <= 0:
            raise ValueError("epoch_pairs must be positive")
        if epoch_span is not None and epoch_span <= 0:
            raise ValueError("epoch_span must be positive")
        if window_epochs <= 0:
            raise ValueError("window_epochs must be positive")
        self._factory = factory
        self.epoch_pairs = epoch_pairs
        self.epoch_span = epoch_span
        self.window_epochs = window_epochs
        self.strict_timestamps = strict_timestamps
        self._ring: deque[Epoch] = deque(maxlen=window_epochs)
        self._epochs_started = 0
        self._pairs_ingested = 0
        self._regressions = 0
        self._last_timestamp: float | None = None
        self._ring.append(self._new_epoch())
        self._encoded = supports_encoded(self._ring[-1].estimator)

    # -- construction helpers --------------------------------------------------

    def _new_epoch(self) -> Epoch:
        epoch = Epoch(index=self._epochs_started, estimator=self._factory(self._epochs_started))
        self._epochs_started += 1
        return epoch

    # -- introspection ---------------------------------------------------------

    @property
    def epochs(self) -> list[Epoch]:
        """The retained epochs, oldest first; the last one is live."""
        return list(self._ring)

    @property
    def live_epoch(self) -> Epoch:
        """The epoch currently absorbing pairs."""
        return self._ring[-1]

    @property
    def epochs_started(self) -> int:
        """Total number of epochs ever started (>= len(ring))."""
        return self._epochs_started

    @property
    def pairs_ingested(self) -> int:
        """Total pairs ingested over the stream's lifetime."""
        return self._pairs_ingested

    @property
    def last_timestamp(self) -> float | None:
        """Arrival-clock position of the most recent pair."""
        return self._last_timestamp

    @property
    def regressions(self) -> int:
        """Pairs whose timestamp regressed and was clamped to the live epoch."""
        return self._regressions

    @property
    def takes_encoded(self) -> bool:
        """Whether the epoch estimators take an :class:`EncodedBatch`.

        Scalar-only estimators (``update`` alone) take the pairs one at a
        time instead; see :meth:`prepare`.
        """
        return self._encoded

    def window_exactness(self) -> str | None:
        """Merge guarantee of sliding queries ("exact" or "additive").

        None when the estimators declare no merge (``ExactCounter``): a
        one-epoch window of them is still served, but has no guarantee to
        name.
        """
        try:
            return merge_exactness(self._ring[-1].estimator)
        except TypeError:  # no merge declaration
            return None

    # -- ingestion -------------------------------------------------------------

    def prepare(self, batch: Batch) -> EncodedBatch | list[UserItemPair]:
        """``batch`` in the form the epoch estimators take.

        Pairs are encoded once (:meth:`EncodedBatch.from_pairs`) for
        estimators with ``update_encoded``, and stay pairs for scalar-only
        ones, which cannot take an :class:`EncodedBatch` (``TypeError``):
        a batch carries item folds, not items.
        """
        if isinstance(batch, EncodedBatch):
            if not self._encoded:
                name = type(self._ring[-1].estimator).__name__
                raise TypeError(
                    f"{name} takes (user, item) pairs, not an EncodedBatch: "
                    "an encoded batch carries item folds, not items"
                )
            return batch
        pairs = batch if isinstance(batch, list) else list(batch)
        return EncodedBatch.from_pairs(pairs) if self._encoded else pairs

    def ingest(
        self,
        batch: Batch,
        timestamps: Sequence[float] | np.ndarray | None = None,
    ) -> list[Epoch]:
        """Absorb a batch of pairs; return the epochs closed along the way.

        ``batch`` is an :class:`EncodedBatch` or (user, item) pairs (see
        :meth:`prepare`).  ``timestamps`` should be non-decreasing and not
        precede previously ingested pairs; when omitted, the monotonic
        event index is used.  A timestamp that regresses — within the
        batch, against an earlier batch, or because a timestamped batch
        preceded an untimestamped one — is clamped to the newest timestamp
        already seen (so the pair lands in the live epoch) and counted in
        :attr:`regressions`; with ``strict_timestamps=True`` it raises
        ``ValueError`` instead.  A rotation inside the batch splits it in
        pair order (:meth:`EncodedBatch.subset` of a pair range).
        """
        batch = self.prepare(batch)
        count = len(batch)
        if timestamps is None:
            base = self._pairs_ingested
            times = np.arange(base, base + count, dtype=np.float64)
        else:
            times = np.array(timestamps, dtype=np.float64)
            if times.shape != (count,):
                raise ValueError("timestamps must have one entry per pair")
        self._normalize_timestamps(times)
        if count == 0:
            return []
        if self.epoch_span is not None and self._ring[-1].start_time is None:
            # Anchor the epoch grid at the stream's first timestamp.
            self._ring[-1].start_time = float(times[0])
        closed: list[Epoch] = []
        position = 0
        while position < count:
            take = self._pairs_until_rotation(times, position)
            if take == 0:
                closed.extend(self._rotate(float(times[position])))
                continue
            self._feed(batch, position, position + take, times)
            position += take
        return closed

    def _normalize_timestamps(self, times: np.ndarray) -> None:
        """Clamp (or, in strict mode, reject) regressed arrival timestamps in place.

        The rotation logic (the sorted search over the batch, the
        live-epoch boundary test) assumes a non-decreasing arrival clock; a
        regressed timestamp would silently land its pair in the wrong
        epoch, so it is pinned to the newest timestamp already seen — time
        stands still and the pair stays in the live epoch.  "Newest" is the
        latest pair that was not itself clamped; nothing compares below a
        NaN, so the clock restarts after one.
        """
        previous = self._last_timestamp
        bound = math.nan if previous is None else previous
        # A pair is clamped only where the clock falls: below the pair
        # before it, or the first pair below the bound.
        if not times.size or not (times[0] < bound or np.any(times[1:] < times[:-1])):
            return
        # The clock with the bound as pair -1.  Each NaN starts a run; in a
        # run, a pair's clock is the newest pair holding the run's maximum
        # so far, which is the highest (value, position) rank.
        clock = np.concatenate(([bound], times))
        order = np.argsort(clock, kind="stable")
        rank = np.empty(clock.size, dtype=np.int64)
        rank[order] = np.arange(1, clock.size + 1)
        nan = np.isnan(clock)
        band = np.cumsum(nan) * (clock.size + 1)  # runs never share a band
        newest = np.maximum.accumulate(band + np.where(nan, 0, rank)) - band
        source = order[np.maximum(newest, 1) - 1]
        regressed = np.flatnonzero((newest > 0) & (source != np.arange(clock.size)))
        if self.strict_timestamps:
            first = int(regressed[0])
            raise ValueError(
                "timestamps must be non-decreasing across the stream "
                f"(got {float(clock[first])} after {float(clock[source[first]])})"
            )
        times[regressed - 1] = clock[source[regressed]]
        clamped = int(regressed.size)
        self._regressions += clamped
        obs.counter("monitor.timestamp_regressions").add(clamped)
        _log.warning(
            "timestamps_clamped",
            clamped=clamped,
            total_regressions=self._regressions,
        )

    def _pairs_until_rotation(self, times: np.ndarray, position: int) -> int:
        """How many pairs from ``position`` still fit in the live epoch."""
        live = self._ring[-1]
        remaining = times.size - position
        if self.epoch_pairs is not None:
            return min(remaining, self.epoch_pairs - live.pairs)
        boundary = live.start_time + self.epoch_span
        if math.isnan(boundary):
            return 0  # no timestamp compares below NaN
        return int(np.searchsorted(times[position:], boundary, side="left"))

    def _feed(
        self,
        batch: EncodedBatch | list[UserItemPair],
        start: int,
        stop: int,
        times: np.ndarray,
    ) -> None:
        live = self._ring[-1]
        if live.start_time is None:
            live.start_time = float(times[start])
        estimator = live.estimator
        if isinstance(batch, EncodedBatch):
            whole = start == 0 and stop == len(batch)
            estimator.update_encoded(batch if whole else batch.subset(slice(start, stop)))
        else:
            for user, item in batch[start:stop]:
                estimator.update(user, item)
        live.pairs += stop - start
        live.end_time = float(times[stop - 1])
        self._pairs_ingested += stop - start
        self._last_timestamp = live.end_time

    def _rotate(self, next_timestamp: float) -> list[Epoch]:
        """Close the live epoch (plus any empty grid epochs) and start a new one."""
        obs.counter("monitor.rotations").add()
        closed: list[Epoch] = []
        live = self._ring[-1]
        live.closed = True
        if self.epoch_span is None:
            closed.append(live)
            self._ring.append(self._new_epoch())
            return closed
        live.end_time = live.start_time + self.epoch_span
        closed.append(live)
        # Grid cell immediately after the closed epoch, then the number of
        # *fully empty* cells before the cell containing next_timestamp.
        next_start = live.end_time
        cells_behind = max(0, int(math.floor((next_timestamp - next_start) / self.epoch_span)))
        # Materialise at most a window's worth of empty epochs: anything older
        # would be evicted from the ring immediately anyway.
        emit = min(cells_behind, self.window_epochs)
        first_empty_start = next_start + (cells_behind - emit) * self.epoch_span
        for cell in range(emit):
            empty = self._new_epoch()
            empty.start_time = first_empty_start + cell * self.epoch_span
            empty.end_time = empty.start_time + self.epoch_span
            empty.closed = True
            closed.append(empty)
            self._ring.append(empty)
        fresh = self._new_epoch()
        fresh.start_time = next_start + cells_behind * self.epoch_span
        self._ring.append(fresh)
        return closed

    # -- queries ---------------------------------------------------------------

    def epoch_estimates(self, position: int = -1) -> dict[object, float]:
        """Tumbling-window query: the estimates of one retained epoch.

        ``position`` indexes the ring (default -1, the live epoch).
        """
        return self._ring[position].estimates()

    def window_estimates(self, last: int | None = None) -> dict[object, float]:
        """Sliding-window query: merged estimates of the last ``last`` epochs.

        Defaults to the whole ring (up to ``window_epochs`` epochs, live
        included).  See :mod:`repro.monitor.merge` for the exactness contract
        per method.
        """
        return merged_estimates([epoch.estimator for epoch in self._window_slice(last)])

    def window_merged(self, last: int | None = None) -> CardinalityEstimator:
        """Return a merged estimator copy over the last ``last`` epochs."""
        return merged_copy([epoch.estimator for epoch in self._window_slice(last)])

    def _window_slice(self, last: int | None) -> list[Epoch]:
        if last is None:
            last = self.window_epochs
        if last <= 0:
            raise ValueError("last must be positive")
        return list(self._ring)[-last:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = (
            f"epoch_pairs={self.epoch_pairs}"
            if self.epoch_pairs is not None
            else f"epoch_span={self.epoch_span}"
        )
        return (
            f"WindowedEstimator({mode}, window={self.window_epochs}, "
            f"epochs={self._epochs_started}, pairs={self._pairs_ingested})"
        )
