"""Columnar per-user state: interned keys + numpy arena columns.

The scale layer under the estimators and the monitor: per-user
bookkeeping — the running or cached estimates of all six methods, the
CSE/vHLL position rows, the monitor's score table — lives in dense numpy
columns addressed by interned user codes, cutting bytes/tracked-user by
several fold at million-user populations.  Intern order is first-seen
order, so every estimate, and every key order, matches what per-user
dicts would hold.

* :class:`UserInterner` — user key (int/str/bytes/tuple) -> dense code,
  with eager 64-bit folds and a persistent integer probe index.
* :class:`UserArena` — estimate/validity columns, plus for CSE/vHLL the
  ``(n, m)`` positions block with amortised-doubling growth, dropped for
  fold recomputes above ``dense_limit`` users.
* :class:`ScoreTable` / :class:`FrozenScores` — the top-k tracker's score
  columns and the O(1) copy-on-write checkout view readers hold.
"""

from repro.state.arena import DENSE_POSITIONS_LIMIT, UserArena
from repro.state.interner import UserInterner
from repro.state.scores import FrozenScores, ScoreTable

__all__ = [
    "DENSE_POSITIONS_LIMIT",
    "FrozenScores",
    "ScoreTable",
    "UserArena",
    "UserInterner",
]
