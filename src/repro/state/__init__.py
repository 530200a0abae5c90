"""Columnar per-user state: interned keys + numpy arena columns.

The scale layer under the estimators and the monitor (ROADMAP item 1):
per-user bookkeeping that used to live in Python dicts of boxed objects —
FreeBS/FreeRS running estimates, CSE/vHLL cached estimates and position
rows, the monitor's score table —
moves into dense numpy columns addressed by interned user codes, cutting
bytes/tracked-user by several fold at million-user populations while every
estimate stays bit-identical to the dict-backed paths (the dict-shaped
views reproduce insertion-order semantics exactly).

* :class:`UserInterner` — user key (int/str/bytes/tuple) -> dense code,
  with eager 64-bit folds and a persistent integer probe index.
* :class:`UserArena` — estimate/validity columns, plus for CSE/vHLL the
  ``(n, m)`` positions block with amortised-doubling growth and the
  dense->fold auto policy.
* :class:`ScoreTable` / :class:`FrozenScores` — the top-k tracker's score
  columns and the O(1) copy-on-write checkout view readers hold.
"""

from repro.state.arena import DENSE_POSITIONS_LIMIT, EstimatesView, PositionsView, UserArena
from repro.state.interner import UserInterner
from repro.state.scores import FrozenScores, ScoreTable

__all__ = [
    "DENSE_POSITIONS_LIMIT",
    "EstimatesView",
    "FrozenScores",
    "PositionsView",
    "ScoreTable",
    "UserArena",
    "UserInterner",
]
