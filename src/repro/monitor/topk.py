"""Incremental top-k scoreboard for the spreader monitor.

The monitor used to rebuild and fully sort the sliding-window estimate dict
after every ingested batch — O(users log users) per batch even when the
batch touched a handful of users.  :class:`TopKTracker` replaces that with:

* a **score table** (:class:`repro.state.ScoreTable`) maintained in
  first-seen order (the canonical tie-break of every ranking this
  repository serves) — numpy score/rank columns behind a read-only
  mapping, with O(1) copy-on-write checkouts for readers;
* a **bounded head**: the exact top-k under the total order
  ``(-score, first_seen_rank)``.  Incremental updates arrive as columns
  (users plus a float64 score column) and go into the table in one
  :meth:`~repro.state.ScoreTable.put_many`.  When they are monotone
  non-decreasing (between window rotations the additive methods' estimates
  only grow, so a user whose score did not change can never displace one
  whose score improved), one vector compare against the old tail picks the
  changed users that can enter the head, and one ``np.lexsort`` over those
  plus the old head repairs it;
* a **full refresh** path (rotations, exact-merge methods) that replaces
  the scores wholesale and re-selects the head with one vectorised
  ``np.lexsort`` partial selection — O(users log users) on the candidate
  columns but with no per-user Python work.

The canonical full ranking is the stable descending sort of the score
table; :meth:`TopKTracker.head` equals its first ``k`` entries bit-for-bit
(``np.lexsort((ranks, -values))`` reproduces stable-sort tie order exactly,
because first-seen ranks are unique and follow insertion order).  The
property suite asserts incremental == full re-sort after arbitrary
ingest/rotation sequences.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro import obs
from repro.engine.base import hot_path
from repro.monitor.merge import as_columns
from repro.state import ScoreTable
from repro.state.interner import Keys


class TopKTracker:
    """Exact top-k over a mutating score table, cheap under sparse updates."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        #: Current score per user; insertion order is first-seen order.
        self.scores = ScoreTable()
        self._head: list[tuple[object, float]] = []
        #: Score-table codes of ``_head`` (None after :meth:`restore_head`,
        #: until the next rebuild).
        self._head_codes: np.ndarray | None = None

    # -- queries ---------------------------------------------------------------

    @property
    def head(self) -> list[tuple[object, float]]:
        """The exact top-k ``(user, score)`` list, best first."""
        return list(self._head)

    def total(self) -> float:
        """Sum of all scores in first-seen order (one vector reduction).

        Recomputed on every call (no running float accumulator): an
        incrementally maintained ``+= new - old`` total drifts by ulps,
        which would make a resumed monitor's delta threshold disagree with
        the uninterrupted run's.  The table's ordered reduction is a pure
        function of window state, so resumed and uninterrupted monitors
        compute the identical float.
        """
        return self.scores.total()

    # -- full refresh ----------------------------------------------------------

    def full_refresh(self, estimates: Mapping[object, float]) -> None:
        """Replace the whole score table (rotation / exact-merge path).

        The score table is updated *in place* so surviving users keep their
        first-seen position: the insertion order — and with it every
        tie-break — stays stable across refreshes.  Columnar estimates (the
        sliding merge's :class:`~repro.monitor.merge.EstimateColumns`) go in
        as one :meth:`~repro.state.ScoreTable.replace`, with no per-user
        Python work.
        """
        scores = self.scores
        if estimates is not scores:
            scores.replace(*as_columns(estimates))
        self._rebuild_head()

    def _rebuild_head(self) -> None:
        obs.counter("monitor.topk.rebuilds").add()
        self._set_head(np.asarray(self.scores.top_codes(self.k), dtype=np.int64))

    def _set_head(self, codes: np.ndarray) -> None:
        scores = self.scores
        self._head_codes = codes
        self._head = [
            (scores.key_at(code), scores.value_at(code)) for code in codes.tolist()
        ]

    # -- incremental updates ---------------------------------------------------

    @hot_path
    def apply_updates(self, users: Keys, values: np.ndarray) -> np.ndarray:
        """Re-score only ``users`` (unique; a list or an ``int64`` column) to
        ``values``; keep the head exact.

        Returns the users' score-table codes.  Requires monotone
        non-decreasing scores (the additive methods' between-rotation
        behaviour).  A decreasing score falls back to a full head rebuild,
        so correctness never depends on the assumption.
        """
        if len(users) == 0:
            return np.empty(0, dtype=np.int64)
        scores = self.scores
        codes, previous = scores.put_many(users, values)
        head_codes = self._head_codes
        if (
            head_codes is None
            or bool(np.any(previous > values))
            or len(self._head) < min(self.k, len(scores))
        ):
            self._rebuild_head()
            return codes
        ranks = scores.ranks_at(codes)
        tail_score = self._head[-1][1]
        tail_rank = int(scores.ranks_at(head_codes[-1:])[0])
        # The pre-update tail key is a safe (weaker) cutoff: scores only
        # grew, so anything beating the new tail also beats this one.
        entering = (values > tail_score) | ((values == tail_score) & (ranks < tail_rank))
        if not entering.any() and not np.isin(codes, head_codes).any():
            return codes
        obs.counter("monitor.topk.repairs").add()
        pool = np.union1d(head_codes, codes[entering])
        order = np.lexsort((scores.ranks_at(pool), -scores.values_at(pool)))
        self._set_head(pool[order[: self.k]])
        return codes

    # -- snapshot plumbing -----------------------------------------------------

    def restore_head(self, head: list[tuple[object, float]]) -> None:
        """Adopt a checkpointed head (scores stay empty until a refresh)."""
        self._head = [(user, float(value)) for user, value in head[: self.k]]
        self._head_codes = None
