"""Continuous top-k super-spreader monitoring with hysteresis alerts.

The one-shot detector (:mod:`repro.detection.super_spreader`) answers "who
is a super spreader *right now*" for a whole-stream estimate.  The monitor
answers the live-traffic question: after every ingested batch it re-ranks
the sliding-window estimates, maintains the continuous top-k spreader set,
and emits *threshold-crossing events* instead of set snapshots — a user
produces one ``start`` alert when its windowed estimate first reaches the
enter threshold and one ``end`` alert when it decays below the exit
threshold, no matter how many batches it stays above.

Flapping is suppressed with hysteresis: the exit threshold is
``enter * (1 - hysteresis)``, so an estimate oscillating around the enter
threshold does not generate an alert storm.  The enter threshold is either
absolute (``threshold``) or relative (``delta``) to the window's total
estimated cardinality, mirroring the paper's ``Delta * n(t)`` rule.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.engine.base import hot_path
from repro.engine.encoding import EncodedBatch
from repro.monitor.merge import ADDITIVE, additive_rescore, as_columns
from repro.monitor.topk import TopKTracker
from repro.monitor.window import Batch, WindowedEstimator
from repro.state import FrozenScores, ScoreTable
from repro.state.interner import Keys, key_list

_log = obs.get_logger("monitor.spreader")


@dataclass(frozen=True)
class AlertEvent:
    """One threshold-crossing of one user's sliding-window estimate."""

    kind: str  #: "start" (crossed the enter threshold) or "end" (decayed below exit)
    user: object
    estimate: float
    threshold: float
    epoch: int  #: index of the live epoch at evaluation time
    timestamp: float | None  #: arrival-clock position at evaluation time
    sequence: int  #: monotonically increasing alert id

    def to_json(self) -> dict[str, object]:
        """JSON-ready representation (used by the replay feed)."""
        from repro.monitor.view import wire_user

        return {
            "type": "alert",
            "kind": self.kind,
            "user": wire_user(self.user),
            "estimate": round(self.estimate, 3),
            "threshold": round(self.threshold, 3),
            "epoch": self.epoch,
            "timestamp": self.timestamp,
            "sequence": self.sequence,
        }


class SpreaderMonitor:
    """Continuous spreader detection over a :class:`WindowedEstimator`.

    Parameters
    ----------
    window:
        The windowed estimator that owns the epoch ring.
    top_k:
        Size of the continuously maintained top-k spreader set.
    threshold:
        Absolute enter threshold on the windowed estimate.  Mutually
        exclusive with ``delta``.
    delta:
        Relative enter threshold: ``delta * n(t)`` where ``n(t)`` is the sum
        of the window's per-user estimates (the paper's rule with the window
        total standing in for the stream total).
    hysteresis:
        Fraction by which the exit threshold sits below the enter threshold
        (0 <= hysteresis < 1); 0 disables the band.
    """

    def __init__(
        self,
        window: WindowedEstimator,
        top_k: int = 10,
        threshold: float | None = None,
        delta: float | None = None,
        hysteresis: float = 0.2,
    ) -> None:
        if (threshold is None) == (delta is None):
            raise ValueError("set exactly one of threshold or delta")
        if threshold is not None and threshold <= 0:
            raise ValueError("threshold must be positive")
        if delta is not None and not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if not 0 <= hysteresis < 1:
            raise ValueError("hysteresis must be in [0, 1)")
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        self.window = window
        self.top_k = top_k
        self.threshold = threshold
        self.delta = delta
        self.hysteresis = hysteresis
        self._active: dict[object, bool] = {}
        self._sequence = 0
        self._version = 0
        self._last_enter_threshold = 0.0
        self._tracker = TopKTracker(top_k)
        # Closed-epoch prefix merges are immutable until rotation: caching
        # them makes the per-batch full evaluation cost one live-epoch merge
        # instead of a whole-ring merge (bit-identical — see view.py).
        from repro.monitor.view import SlidingMergeCache

        self._merge_cache = SlidingMergeCache()
        self._last_window_estimates: ScoreTable | None = None
        #: None until the first evaluation decides whether the method's
        #: sliding estimates can be maintained incrementally (additive merge).
        self._incremental_capable: bool | None = None
        self._primed = False
        self._pairs_seen = 0
        self._incremental_evaluations = 0
        self._full_evaluations = 0

    # -- ingestion + evaluation ------------------------------------------------

    def observe(
        self,
        batch: Batch,
        timestamps: Sequence[float] | np.ndarray | None = None,
    ) -> list[AlertEvent]:
        """Ingest one batch, re-evaluate the window, return new alert events.

        ``batch`` is an :class:`~repro.engine.EncodedBatch` or (user, item)
        pairs, which are encoded once (see
        :meth:`WindowedEstimator.prepare`); ``timestamps`` is an optional
        array of arrival times, one per pair.

        Between epoch rotations, methods with *additive* sliding merges
        (FreeBS/FreeRS, sharded included) take the incremental path: only
        the users touched by this batch (``batch.user_keys()``, first-seen;
        an integer batch's ``int64`` column) are re-scored (their windowed
        estimate is the left-fold sum of their per-epoch estimates — one
        estimate-column gather per epoch), and the continuous top-k absorbs
        just those updates.  Any rotation, and every exact-merge method,
        falls back to the full re-evaluation in :meth:`evaluate`.  Both
        paths produce bit-identical estimates, key order and top-k
        (asserted by the property suite).
        """
        batch = self.window.prepare(batch)
        # Ingest that bypassed observe() (direct window.ingest calls) makes
        # the tracker's score table stale for users this batch did not touch;
        # detect it and fall back to a full re-evaluation.
        stale = self.window.pairs_ingested != self._pairs_seen
        closed = self.window.ingest(batch, timestamps)
        if (
            isinstance(batch, EncodedBatch)
            and not closed
            and not stale
            and self._primed
            and self._can_increment()
        ):
            return self._evaluate_incremental(batch.user_keys())
        return self.evaluate()

    def _can_increment(self) -> bool:
        if self._incremental_capable is None:
            self._incremental_capable = self.window.window_exactness() == ADDITIVE
        return self._incremental_capable

    def sliding_estimates(self, last: int | None = None) -> Mapping[object, float]:
        """Sliding-window estimates of the last ``last`` epochs, right now.

        Served from the same prefix cache the evaluation uses, so a query
        right after an evaluation reuses its closed-epoch merge.  Caller
        holds the ingest lock (reads live epoch state).
        """
        return self._merge_cache.sliding_estimates(self.window, last)

    def evaluate(self) -> list[AlertEvent]:
        """Fully re-rank the sliding window and emit threshold-crossing events."""
        estimates = self._merge_cache.sliding_estimates(self.window)
        self._tracker.full_refresh(estimates)
        self._full_evaluations += 1
        obs.counter("monitor.evaluations", path="full").add()
        self._primed = True
        self._pairs_seen = self.window.pairs_ingested
        # Cache for same-state readers (e.g. the replay feed's window
        # records): the sliding merge is an O(users x m) decode, so
        # recomputing it per reader would double the dominant per-batch
        # cost.  The tracker's score table *is* the window estimates
        # (updated in place, first-seen key order).
        scores = self._tracker.scores
        self._last_window_estimates = scores
        enter = self._enter_threshold()
        exit_threshold = enter * (1.0 - self.hysteresis)
        epoch = self.window.live_epoch.index
        timestamp = self.window.last_timestamp
        alerts: list[AlertEvent] = []
        # One vectorised threshold select instead of boxing every (user,
        # score) pair; candidate order is insertion order, so emission order
        # and sequence numbers are unchanged.
        for user, estimate in scores.threshold_candidates(enter):
            if user not in self._active:
                self._active[user] = True
                alerts.append(self._emit("start", user, estimate, enter, epoch, timestamp))
        alerts.extend(self._end_alerts(scores, exit_threshold, epoch, timestamp))
        self._last_enter_threshold = enter
        self._version += 1
        return alerts

    @hot_path
    def _evaluate_incremental(self, touched: Keys) -> list[AlertEvent]:
        """Re-score only the batch's users (additive methods, no rotation).

        A touched user's windowed estimate is the sum of its per-epoch
        estimates in ring order (:func:`~repro.monitor.merge.additive_rescore`:
        one estimate-column gather per epoch, left-folded with numpy) —
        exactly the fold the sliding merge performs, so the value is
        bit-identical to a full merge.  Untouched users' additive estimates
        cannot change without a rotation, and the enter threshold is
        non-decreasing while scores only grow, so scanning the touched users
        (for start alerts) plus the active set (for end alerts) sees every
        possible crossing.
        """
        users, values = additive_rescore(
            [epoch.estimator for epoch in self.window.epochs], touched
        )
        codes = self._tracker.apply_updates(users, values)
        self._incremental_evaluations += 1
        obs.counter("monitor.evaluations", path="incremental").add()
        self._pairs_seen = self.window.pairs_ingested
        scores = self._tracker.scores
        self._last_window_estimates = scores
        enter = self._enter_threshold()
        exit_threshold = enter * (1.0 - self.hysteresis)
        epoch = self.window.live_epoch.index
        timestamp = self.window.last_timestamp
        alerts: list[AlertEvent] = []
        # Scan the candidates in first-seen (score-table rank) order so alert
        # emission order and sequence numbers match what a full evaluation
        # of the same state emits — the snapshot-resume identity contract.
        # Alert users are Python objects (ints from a column), as served.
        candidates = np.flatnonzero(values >= enter)
        candidates = candidates[np.argsort(scores.ranks_at(codes[candidates]))]
        candidate_users = key_list(users, candidates)
        candidate_values = values[candidates].tolist()
        for user, estimate in zip(candidate_users, candidate_values):
            if user not in self._active:
                self._active[user] = True
                alerts.append(self._emit("start", user, estimate, enter, epoch, timestamp))
        alerts.extend(self._end_alerts(scores, exit_threshold, epoch, timestamp))
        self._last_enter_threshold = enter
        self._version += 1
        return alerts

    def _end_alerts(
        self,
        scores: dict[object, float],
        exit_threshold: float,
        epoch: int,
        timestamp: float | None,
    ) -> list[AlertEvent]:
        alerts: list[AlertEvent] = []
        for user in [
            user for user in self._active if scores.get(user, 0.0) < exit_threshold
        ]:
            del self._active[user]
            alerts.append(
                self._emit(
                    "end", user, scores.get(user, 0.0), exit_threshold, epoch, timestamp
                )
            )
        return alerts

    def _enter_threshold(self) -> float:
        if self.threshold is not None:
            return self.threshold
        return self.delta * self._tracker.total()

    def _emit(
        self,
        kind: str,
        user: object,
        estimate: float,
        threshold: float,
        epoch: int,
        timestamp: float | None,
    ) -> AlertEvent:
        event = AlertEvent(
            kind=kind,
            user=user,
            estimate=float(estimate),
            threshold=float(threshold),
            epoch=epoch,
            timestamp=timestamp,
            sequence=self._sequence,
        )
        self._sequence += 1
        obs.counter("monitor.alerts", kind=kind).add()
        _log.info(
            "spreader_alert",
            kind=kind,
            user=user,
            estimate=round(float(estimate), 3),
            threshold=round(float(threshold), 3),
            epoch=epoch,
            sequence=event.sequence,
        )
        return event

    # -- continuous state ------------------------------------------------------

    @property
    def active_spreaders(self) -> list[object]:
        """Users currently inside the alert band (start emitted, no end yet)."""
        return list(self._active)

    @property
    def current_top(self) -> list[tuple[object, float]]:
        """The continuously maintained top-k (user, estimate) ranking."""
        return self._tracker.head

    @property
    def incremental_evaluations(self) -> int:
        """Batches absorbed through the dirty-set incremental path."""
        return self._incremental_evaluations

    @property
    def full_evaluations(self) -> int:
        """Batches that required a full sliding-window re-evaluation."""
        return self._full_evaluations

    @property
    def last_enter_threshold(self) -> float:
        """The enter threshold used by the most recent evaluation."""
        return self._last_enter_threshold

    def last_window_estimates(self) -> FrozenScores:
        """The sliding-window estimates from the most recent evaluation.

        The backing table is the monitor's live score state, mutated in
        place by later evaluations — handing it out directly would let a
        reader race a concurrent ingest thread mid-iteration.  Readers get
        an O(1) copy-on-write :meth:`~repro.state.ScoreTable.checkout`
        instead: the table copies its columns only if a later evaluation
        actually mutates them.  Before the first evaluation of a fresh or
        restored monitor, a table of its own is filled once from a fresh
        merge of the window.
        """
        current = self._last_window_estimates
        if current is None:
            current = self._last_window_estimates = ScoreTable()
            current.replace(*as_columns(self.window.window_estimates()))
        return current.checkout()

    @property
    def alerts_emitted(self) -> int:
        """Total number of alert events emitted so far."""
        return self._sequence

    @property
    def version(self) -> int:
        """Monotonically increasing state version (bumped per evaluation).

        The service layer stamps every response with the version of the
        read snapshot that answered it, so a client can correlate answers
        with ingest progress.
        """
        return self._version

    def read_snapshot(self):
        """Export an immutable, versioned view for concurrent readers.

        See :mod:`repro.monitor.view`; call while the monitor is quiescent
        (the service layer holds its ingest lock around this).
        """
        from repro.monitor.view import export_read_snapshot

        return export_read_snapshot(self)

    # -- snapshot plumbing -----------------------------------------------------

    def state_to_json(self) -> dict[str, object]:
        """Detector state for :mod:`repro.monitor.snapshot` (keys tagged)."""
        from repro.core.serialization import _estimates_to_json, _key_to_json

        return {
            "active": [_key_to_json(user) for user in self._active],
            "sequence": self._sequence,
            "version": self._version,
            "last_enter_threshold": self._last_enter_threshold,
            "top": _estimates_to_json(dict(self._tracker.head)),
        }

    def state_from_json(self, state: dict[str, object]) -> None:
        """Restore detector state written by :meth:`state_to_json`."""
        from repro.core.serialization import _estimates_from_json, _key_from_json

        self._active = {_key_from_json(kind, key): True for kind, key in state["active"]}
        self._sequence = int(state["sequence"])
        # Older snapshots predate the version counter; resume from zero.
        self._version = int(state.get("version", 0))
        self._last_enter_threshold = float(state["last_enter_threshold"])
        restored = _estimates_from_json(state["top"])
        self._tracker.restore_head(
            sorted(restored.items(), key=lambda pair: pair[1], reverse=True)
        )
        # The score table is rebuilt by the first full evaluation.
        self._primed = False
