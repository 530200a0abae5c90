"""Incremental top-k scoreboard for the spreader monitor.

The monitor used to rebuild and fully sort the sliding-window estimate dict
after every ingested batch — O(users log users) per batch even when the
batch touched a handful of users.  :class:`TopKTracker` replaces that with:

* a **score table** (:class:`repro.state.ScoreTable`) maintained in
  first-seen order (the canonical tie-break of every ranking this
  repository serves) — numpy score/rank columns behind a dict-shaped
  mapping, with O(1) copy-on-write checkouts for readers;
* a **bounded head**: the exact top-k under the total order
  ``(-score, first_seen_rank)``, rebuilt from a candidate pool of
  ``old head + users whose score changed`` when updates are monotone
  non-decreasing (between window rotations the additive methods' estimates
  only grow, so a user whose score did not change can never displace one
  whose score improved);
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


from repro import obs
from repro.monitor.merge import as_columns
from repro.state import ScoreTable


class TopKTracker:
    """Exact top-k over a mutating score table, cheap under sparse updates."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        #: Current score per user; insertion order is first-seen order.
        self.scores = ScoreTable()
        self._head: list[tuple[object, float]] = []

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

    def rank_order(self, users) -> list[object]:
        """Sort ``users`` by first-seen rank — the canonical scan order.

        The full evaluation scans the score table in insertion (first-seen)
        order; incremental evaluations scan their dirty set through this so
        alert emission order — and with it the alert sequence numbers a
        resumed monitor must reproduce — is identical on both paths.
        """
        return sorted(users, key=self.scores.rank_of)

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
        scores = self.scores
        self._head = [
            (scores.key_at(code), scores.value_at(code))
            for code in scores.top_codes(self.k)
        ]

    # -- incremental updates ---------------------------------------------------

    def apply_updates(self, changed: Mapping[object, float]) -> None:
        """Re-score only ``changed`` users; keep the head exact.

        Requires monotone non-decreasing scores (the additive methods'
        between-rotation behaviour).  A decreasing score falls back to a
        full head rebuild, so correctness never depends on the assumption.
        """
        if not changed:
            return
        scores = self.scores
        decreased = False
        for user, value in changed.items():
            old = scores.put(user, value)
            if old is not None and value < old:
                decreased = True
        if decreased or len(self._head) < min(self.k, len(scores)):
            self._rebuild_head()
            return
        rank_of = scores.rank_of
        pool = {user for user, _ in self._head}
        tail_user, tail_score = self._head[-1]
        # The pre-update tail key is a safe (weaker) cutoff: scores only
        # grew, so anything beating the new tail also beats this one.
        cutoff = (-tail_score, rank_of(tail_user))
        dirty = False
        for user in changed:
            if user in pool:
                dirty = True
            elif (-scores[user], rank_of(user)) < cutoff:
                pool.add(user)
                dirty = True
        if dirty:
            obs.counter("monitor.topk.repairs").add()
            self._head = sorted(
                ((user, scores[user]) for user in pool),
                key=lambda item: (-item[1], rank_of(item[0])),
            )[: self.k]

    # -- snapshot plumbing -----------------------------------------------------

    def restore_head(self, head: list[tuple[object, float]]) -> None:
        """Adopt a checkpointed head (scores stay empty until a refresh)."""
        self._head = [(user, float(value)) for user, value in head[: self.k]]
