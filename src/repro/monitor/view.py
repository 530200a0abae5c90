"""Versioned read-only views of a live monitor: the query-serving seam.

The service layer (:mod:`repro.service`) answers thousands of concurrent
readers while ingest keeps mutating the monitor.  Two pieces make that safe
and cheap:

* :class:`ReadSnapshot` — an immutable export of everything the hot query
  ops (``spread`` / ``batch_spread`` / ``topk`` / ``stats``) need, stamped
  with the monitor's :attr:`~repro.monitor.spreader.SpreaderMonitor.version`.
  Building one costs an O(1) checkout of the monitor's score table; it
  reuses the sliding-window merge the monitor's own evaluation already
  cached, so the export adds no sketch work.  Readers hold a reference
  and never touch the live monitor — ingest proceeds regardless of reader
  count.
* :class:`SlidingMergeCache` — the sliding-window merge behind both the
  monitor's per-batch evaluation and the ``sliding(k_epochs)`` op, cached
  by the *closed-epoch prefix* of the window slice.  Closed epochs are
  immutable, so a prefix stays valid until rotation moves the window past
  it (:meth:`SlidingMergeCache.invalidate` drops it then); only the live
  epoch is merged per query.  Prefixes are raw arrays, not estimator
  copies (:func:`repro.monitor.merge.sliding_prefix`): for CSE/vHLL the
  union of the shared arrays plus the union's users, for FreeBS/FreeRS the
  left-fold sum of the closed epochs' estimates.  A query ORs / maxes the
  live epoch into a reused scratch array, interns only the live users the
  prefix has not seen, and evaluates the closed form over the whole
  population as columns.  The answer is bit-identical, in the same key
  order, to :meth:`~repro.monitor.window.WindowedEstimator.window_estimates`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from dataclasses import dataclass

import numpy as np

# The object-merge helpers are re-exported here (``x as x``) beside
# fresh_estimates: perfbench/tracer.py wraps all four names in this module
# and in repro.monitor.merge.
from repro.monitor.merge import (
    fresh_estimates,
    merge_into as merge_into,
    merged_copy as merged_copy,
    refresh_estimates_from_state as refresh_estimates_from_state,
    sliding_prefix,
)
from repro.monitor.window import WindowedEstimator
from repro.state import FrozenScores


def wire_user(user: object) -> object:
    """Coerce a user key to its JSON-safe wire form.

    Ints and strings pass through; everything else (tuples, bytes, ...) is
    stringified.  This is the *one* coercion every serialised surface uses —
    ``topk`` / ``sliding`` responses, alert feeds — and
    :meth:`ReadSnapshot.spread` resolves the same form back to the original
    key, so a key read from any response can be fed into any query op.
    """
    return user if isinstance(user, (int, str)) else str(user)


def normalize_user_key(estimates: Mapping[object, float], user: object) -> object:
    """Map a wire-format user id onto the estimate table's key.

    JSON carries user ids as strings or ints; streams may use either.  A
    direct hit wins; otherwise a digit string falls back to its int form
    (and an int to its string form), so a client querying ``"42"`` finds
    the user ingested as ``42``.
    """
    if user in estimates:
        return user
    if isinstance(user, str):
        try:
            as_int = int(user)
        except ValueError:  # not an integer-shaped string: no fallback
            return user
        if as_int in estimates:
            return as_int
    elif isinstance(user, int) and str(user) in estimates:
        return str(user)
    return user


@dataclass(frozen=True)
class ReadSnapshot:
    """Immutable, versioned export of a monitor's queryable state."""

    #: Monotonically increasing state version (bumped per evaluation).
    version: int
    #: Method name from the monitor's spec (None for spec-less monitors).
    method: str | None
    pairs_ingested: int
    epochs_started: int
    #: Index of the live epoch at export time.
    live_epoch: int
    last_timestamp: float | None
    window_epochs: int
    #: Merge guarantee of the sliding estimates ("exact" or "additive"; None
    #: for estimators that declare no merge).
    exactness: str | None
    #: Clamped timestamp regressions observed so far.
    regressions: int
    enter_threshold: float
    active_spreaders: tuple[object, ...]
    #: Metadata of every retained epoch, oldest first.
    epoch_summaries: tuple[dict[str, object], ...]
    #: Full sliding-window per-user estimates, in first-seen key order (the
    #: canonical tie-break of every ranking): a frozen score-table checkout.
    estimates: FrozenScores
    #: Head of the ranking, precomputed by the monitor's continuous top-k
    #: tracker (up to the monitor's ``top_k`` entries).
    top: tuple[tuple[object, float], ...] = ()

    # -- lazy derived structures ----------------------------------------------
    # The snapshot is frozen; caches are attached via object.__setattr__ so
    # exporting one (done at every ingest batch boundary) costs no sort or
    # index build.

    @property
    def ranked(self) -> tuple[tuple[object, float], ...]:
        """``estimates`` ranked descending, ties in first-seen order.

        Built on first use: the hot refresh path never ranks more than the
        tracker's head, and most snapshots are never asked for a deep
        ``topk``.
        """
        cached = self.__dict__.get("_ranked")
        if cached is None:
            cached = tuple(
                sorted(self.estimates.items(), key=lambda item: item[1], reverse=True)
            )
            object.__setattr__(self, "_ranked", cached)
        return cached

    def _wire_aliases(self) -> dict[str, object]:
        """Map ``wire_user`` forms back to the original non-JSON-safe keys."""
        cached = self.__dict__.get("_aliases")
        if cached is None:
            cached = {}
            for user in self.estimates:
                if not isinstance(user, (int, str)):
                    cached.setdefault(str(user), user)
            object.__setattr__(self, "_aliases", cached)
        return cached

    # -- query ops -------------------------------------------------------------

    def spread(self, user: object) -> float:
        """One user's sliding-window estimate (0.0 for unseen users)."""
        estimates = self.estimates
        key = normalize_user_key(estimates, user)
        value = estimates.get(key)
        if value is None and isinstance(user, str):
            # Symmetric wire coercion: a key that was stringified on the way
            # out (tuple/bytes users) resolves back to the original.
            alias = self._wire_aliases().get(user)
            if alias is not None:
                value = estimates.get(alias)
        return float(value) if value is not None else 0.0

    def batch_spread(self, users: Sequence[object]) -> list[float]:
        """Estimates for many users, in input order.

        All-hit batches — the service hot path — resolve against the frozen
        score columns with one vectorised gather
        (:meth:`repro.state.FrozenScores.gather_exact`).  Any miss falls
        back to the per-user :meth:`spread` loop with its normalization
        semantics (int/str duality, wire aliases), so results are identical
        on every path.  An id array (the binary wire form) goes to the
        gather as it is.
        """
        if not isinstance(users, np.ndarray):
            users = list(users)
        if len(users) > 1:
            values = self.estimates.gather_exact(users)
            if values is not None:
                return values
        return [self.spread(user) for user in users]

    def topk(self, k: int) -> list[tuple[object, float]]:
        """The top-``k`` (user, estimate) ranking of the sliding window."""
        if k <= 0:
            raise ValueError("k must be positive")
        if k <= len(self.top) or len(self.top) >= len(self.estimates):
            return [(user, float(value)) for user, value in self.top[:k]]
        return [(user, float(value)) for user, value in self.ranked[:k]]

    def total_estimate(self) -> float:
        """Sum of the sliding-window estimates (the paper's ``n(t)``).

        The score table's own reduction, so ``delta * total_estimate()`` is
        exactly the delta enter threshold of the same state.
        """
        return self.estimates.total()

    def stats(self) -> dict[str, object]:
        """JSON-ready summary of the snapshot (the ``stats`` op's core)."""
        return {
            "version": self.version,
            "method": self.method,
            "pairs_ingested": self.pairs_ingested,
            "epochs_started": self.epochs_started,
            "live_epoch": self.live_epoch,
            "last_timestamp": self.last_timestamp,
            "window_epochs": self.window_epochs,
            "exactness": self.exactness,
            "regressions": self.regressions,
            "users_tracked": len(self.estimates),
            "total_estimate": self.total_estimate(),
            "enter_threshold": self.enter_threshold,
            "active_spreaders": len(self.active_spreaders),
            "epochs": list(self.epoch_summaries),
        }


def export_read_snapshot(monitor) -> ReadSnapshot:
    """Build a :class:`ReadSnapshot` from a monitor's current state.

    Must run while the monitor is quiescent (between batches — the service
    layer holds the ingest lock).  Reuses the sliding merge of the last
    evaluation and the continuous top-k tracker's head, so the cost is one
    copy-on-write checkout — no sorting; the full ranking is materialised
    lazily only if a deep ``topk`` asks for it.
    """
    estimates = monitor.last_window_estimates()
    window = monitor.window
    spec = getattr(monitor, "spec", None)
    return ReadSnapshot(
        version=monitor.version,
        method=None if spec is None else spec.method,
        pairs_ingested=window.pairs_ingested,
        epochs_started=window.epochs_started,
        live_epoch=window.live_epoch.index,
        last_timestamp=window.last_timestamp,
        window_epochs=window.window_epochs,
        exactness=window.window_exactness(),
        regressions=window.regressions,
        enter_threshold=monitor.last_enter_threshold,
        active_spreaders=tuple(monitor.active_spreaders),
        epoch_summaries=tuple(epoch.summary() for epoch in window.epochs),
        estimates=estimates,
        top=tuple((user, float(value)) for user, value in monitor.current_top),
    )


class SlidingMergeCache:
    """Closed-epoch prefix merges for sliding-window queries.

    A ``k``-epoch sliding query merges the last ``k`` retained epochs.  All
    but the last of those are closed (immutable), so their union is cached
    keyed by the tuple of epoch indices (see
    :func:`~repro.monitor.merge.sliding_prefix`); per query only the live
    epoch is merged on top.  Results keep the left-fold merge order of
    :func:`repro.monitor.merge.merged_copy` — keys in the same order, values
    bit-identical, float addition order preserved for the additive methods.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        #: epoch indices -> (the closed and live estimators the prefix was
        #: built against, the prefix).
        self._prefixes: dict[tuple[int, ...], tuple[tuple[object, ...], object]] = {}

    def invalidate(self, window: WindowedEstimator) -> None:
        """Drop prefixes that do not end at the newest closed epoch.

        Every prefix ends right before the live epoch it is merged with, so
        a rotation retires all cached prefixes — including those whose
        epochs are all still in the ring, which no query can ask for again.
        """
        epochs = window.epochs
        newest_closed = epochs[-2].index if len(epochs) > 1 else None
        for key in [key for key in self._prefixes if key[-1] != newest_closed]:
            del self._prefixes[key]

    def sliding_estimates(
        self, window: WindowedEstimator, last: int | None = None
    ) -> Mapping[object, float]:
        """``window.window_estimates(last)`` with the closed prefix cached.

        Must run under the ingest lock (reads live epoch state).  Returns a
        fresh :class:`~repro.monitor.merge.EstimateColumns` for multi-epoch
        slices (a plain dict of fresh estimates for a one-epoch slice); the
        caller may keep it, nothing the cache reuses is shared with it.
        """
        epochs = window.epochs
        if last is None:
            last = window.window_epochs
        if last <= 0:
            raise ValueError("last must be positive")
        slice_ = epochs[-last:]
        if len(slice_) == 1:
            return fresh_estimates(slice_[0].estimator)
        self.invalidate(window)
        key = tuple(epoch.index for epoch in slice_[:-1])
        sources = tuple(epoch.estimator for epoch in slice_)
        entry = self._prefixes.get(key)
        if entry is None or any(a is not b for a, b in zip(entry[0], sources)):
            # A different window (or a restored one) reusing epoch indices
            # gets a prefix of its own.
            if len(self._prefixes) >= self._max_entries:
                self._prefixes.clear()
            entry = self._prefixes[key] = (sources, sliding_prefix(sources[:-1]))
        return entry[1].query(sources[-1])
