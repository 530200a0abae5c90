"""Sketch-level union merges across estimators of the same configuration.

The monitoring subsystem feeds the same configuration *different slices of
time* (one estimator per epoch) and combines them into one view of the
union of the slices.  That is a union at the sketch-state level: OR for
bit arrays, element-wise max for register arrays.

Exactness contract (documented in docs/monitoring.md and asserted by the
test-suite):

* **CSE, vHLL, LPC, HLL++** are *mergeable*: their sketch state is an
  order-independent union (bits / register maxima), and their estimates are
  pure functions of that state.  Merging the per-epoch states and
  re-evaluating yields exactly the estimate a single estimator fed the
  concatenated epochs would report when asked to re-estimate from its final
  state (``estimate_fresh`` for the shared-sketch methods; the per-user
  baselines' cached estimates already equal the fresh ones).
* **FreeBS and FreeRS** are *not* mergeable in that sense: their per-user
  estimates are Horvitz–Thompson sums whose increments depend on the shared
  array's fill trajectory, which differs between one long run and several
  fresh epochs.  The merged estimate is defined as the **sum of the
  per-epoch estimates** — each epoch's estimate is an unbiased estimate of
  the epoch's distinct pairs, so the sum unbiasedly estimates the window
  total *plus* the cross-epoch duplicates (pairs re-appearing in a later
  epoch are counted again).  The sketch state still merges as a union so the
  combined estimator remains usable.
* **Sharded** estimators merge shard-by-shard and inherit the weaker of
  their shards' guarantees.

All merges require identical dimensioning and seeds on both sides — the
:class:`~repro.monitor.window.WindowedEstimator` guarantees this by building
every epoch from the same factory.

Each registry method declares its merge once, as a
:class:`~repro.registry.MergeSpec` on its ``MethodSpec``: the merge family
and the attributes both sides must share.  This module looks the
declaration up by ``type(estimator)`` and implements each family once, as
one class per family: :class:`_AdditivePrefix` (FreeBS, FreeRS),
:class:`_SharedArrayPrefix` (CSE, vHLL) and :class:`_ObjectPrefix` (LPC,
HLL++).  ``ShardedEstimator`` is the one structural case: it recurses per
shard.  An estimator without a declaration has no merge:
:func:`merge_exactness`, :func:`merge_into` and :func:`sliding_prefix` raise
``TypeError`` for it, :func:`refresh_estimates_from_state` leaves it alone
and :func:`fresh_estimates` returns its ``estimates()``.

Two forms of the same merge live in each family.  :func:`merge_into` /
:func:`merged_copy` combine whole estimator objects; they are the reference
behind ``window_estimates`` and the only path for the per-user-sketch
baselines (LPC, HLL++).  :func:`sliding_prefix` builds the family's cached
sliding form: it keeps a closed-epoch prefix as raw arrays (shared array
union plus the union's users for CSE/vHLL, one column of left-fold estimate
sums for FreeBS/FreeRS) and adds the live epoch per query, returning
:class:`EstimateColumns` with the same keys, order and values.
:func:`additive_rescore` is the additive merge restricted to a few users:
the monitor's incremental evaluation re-scores a batch's users with it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

import copy
import itertools
import operator

import numpy as np

from repro.engine.base import hot_path
from repro.engine.sharded import ShardedEstimator
from repro.registry.specs import ADDITIVE, MERGE_SPECS, PER_USER, SHARED_ARRAY, MergeSpec
from repro.state import UserArena
from repro.state.interner import Keys, key_list

#: Merge semantics per estimator class: ``exact`` means the merged estimate
#: equals a single run's fresh re-estimate over the union stream;
#: ``additive`` (the additive family's name) means the merged estimate is
#: the sum of per-part estimates.
EXACT = "exact"


def _declared(estimator) -> MergeSpec:
    """The estimator's merge declaration; ``TypeError`` when it has none."""
    declared = MERGE_SPECS.get(type(estimator))
    if declared is None:
        raise TypeError(f"no monitor merge support for {type(estimator).__name__}")
    return declared


def merge_exactness(estimator: object) -> str:
    """Return the merge guarantee (:data:`EXACT` or :data:`ADDITIVE`) of an estimator."""
    if isinstance(estimator, ShardedEstimator):
        guarantees = {merge_exactness(shard) for shard in estimator.shards}
        return ADDITIVE if ADDITIVE in guarantees else EXACT
    return EXACT if _declared(estimator).exact else ADDITIVE


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(f"cannot merge: {what} must match on both sides")


def _require_shared(declared: MergeSpec, first, other) -> None:
    """Both sides agree on every attribute the declaration lists."""
    shared = operator.attrgetter(*declared.shared)
    _require(shared(first) == shared(other), ", ".join(declared.shared))


def _union(declared: MergeSpec, merged, source) -> None:
    """Union ``source``'s shared array into the array ``merged`` (OR / register max)."""
    declared.union(merged, getattr(source, declared.array))


def tracked_users(estimator) -> list:
    """Every user the estimator carries per-user state for, in first-seen order.

    Straight from the arena's interner: every user with any per-user state
    is interned, including a CSE/vHLL user whose estimate was never
    published.
    """
    return estimator._arena.users()


def merge_into(target, source, refresh_estimates: bool = True):
    """Union-merge ``source``'s sketch state and estimates into ``target``.

    ``target`` is mutated and returned; ``source`` is left untouched.  Both
    must be the same class with identical dimensioning and seeds (the
    windowed estimator's per-epoch factories guarantee this).

    ``refresh_estimates=False`` defers the re-evaluation of the exact
    methods' estimates (a per-user O(m) pass) — callers chaining several
    merges do one :func:`refresh_estimates` pass at the end instead of one
    per merge.  The target then keeps its cached estimates, so CSE/vHLL
    settle what they owe against the array before the union.  The
    additive methods' estimate sums always accumulate.
    """
    if type(target) is not type(source):
        raise TypeError(
            f"cannot merge {type(source).__name__} into {type(target).__name__}"
        )
    if isinstance(target, ShardedEstimator):
        _require(
            (target.num_shards, target.seed) == (source.num_shards, source.seed),
            "shard count and routing seed",
        )
        for shard_target, shard_source in zip(target._shards, source._shards):
            merge_into(shard_target, shard_source, refresh_estimates=refresh_estimates)
        target._shard_pairs = [
            ours + theirs
            for ours, theirs in zip(target._shard_pairs, source._shard_pairs)
        ]
        return target
    declared = _declared(target)
    _require_shared(declared, target, source)
    _FAMILIES[declared.family].merge(declared, target, source, refresh_estimates)
    return target


def refresh_estimates_from_state(estimator) -> None:
    """Re-evaluate an exact-merge estimator's estimates from its sketch state.

    Estimates of the exact methods are pure functions of the (merged) state;
    additive methods keep their accumulated sums, and estimators without a
    merge declaration keep theirs, so this is a no-op for them.
    """
    if isinstance(estimator, ShardedEstimator):
        for shard in estimator._shards:
            refresh_estimates_from_state(shard)
        return
    declared = MERGE_SPECS.get(type(estimator))
    if declared is not None:
        _FAMILIES[declared.family].refresh(estimator)


def fresh_estimates(estimator) -> dict[object, float]:
    """Per-user estimates re-evaluated from the estimator's current state.

    For CSE/vHLL the cached ``estimates()`` reflect the shared array *as of
    each user's last arrival* — correct for the paper's streaming protocol,
    but inconsistent with what a multi-epoch merge reports.  Sliding-window
    queries use this fresh view so a one-epoch window and a two-epoch window
    answer with the same semantics.  Read-only: ``estimator`` is untouched.
    """
    if isinstance(estimator, ShardedEstimator):
        combined: dict[object, float] = {}
        for shard in estimator._shards:
            combined.update(fresh_estimates(shard))
        return combined
    declared = MERGE_SPECS.get(type(estimator))
    if declared is None:
        return estimator.estimates()
    return _FAMILIES[declared.family].fresh(estimator)


def merged_copy(estimators: Sequence):
    """Return a new estimator holding the union of the given epoch states.

    The copy's cached estimates are always refreshed from the merged state,
    *including* for a single-element input: a one-epoch "merge" of CSE/vHLL
    previously kept the as-of-last-arrival cached estimates, so
    ``window_merged(1).estimates()`` disagreed with ``window_estimates(1)``
    (which re-evaluates freshly) — stale values for every user not in the
    live epoch's latest batch.
    """
    if not estimators:
        raise ValueError("need at least one estimator to merge")
    merged = copy.deepcopy(estimators[0])
    # The closing refresh rewrites every cached estimate, so the copy's
    # deferred ones are dropped, not settled by the first merge.
    _drop_deferred(merged)
    for source in estimators[1:]:
        # Defer the exact methods' O(users x m) estimate re-evaluation to a
        # single pass after the last merge.
        merge_into(merged, source, refresh_estimates=False)
    refresh_estimates_from_state(merged)
    return merged


def _drop_deferred(estimator) -> None:
    """Forget the cached estimates a CSE/vHLL estimator has not worked out."""
    if isinstance(estimator, ShardedEstimator):
        for shard in estimator._shards:
            _drop_deferred(shard)
        return
    declared = MERGE_SPECS.get(type(estimator))
    if declared is not None and declared.family == SHARED_ARRAY:
        estimator._arena.drop_pending()


def merged_estimates(estimators: Sequence) -> dict[object, float]:
    """Per-user estimates over the union of the given epoch states.

    Single-epoch queries short-circuit to a fresh (no-copy) re-evaluation of
    the epoch's state, so the answer's semantics do not depend on how many
    epochs the window currently holds.
    """
    if len(estimators) == 1:
        return fresh_estimates(estimators[0])
    return merged_copy(estimators).estimates()


# -- cached sliding merges ------------------------------------------------------


class EstimateColumns(Mapping):
    """Per-user estimates as two columns: ``users`` and float64 ``column``.

    The result of a cached sliding merge: a read-only mapping in ``users``
    order that the score table takes as-is
    (:meth:`~repro.state.ScoreTable.replace`).  ``column`` belongs to this
    object; it is never a view of a buffer the cache reuses.
    """

    __slots__ = ("users", "column", "_index")

    def __init__(self, users: list, column: np.ndarray) -> None:
        self.users = users
        self.column = column
        self._index: dict[object, int] | None = None

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[object]:
        return iter(self.users)

    def __getitem__(self, user: object) -> float:
        index = self._index
        if index is None:
            index = self._index = {key: code for code, key in enumerate(self.users)}
        return float(self.column[index[user]])

    def items(self):  # a lazy (user, estimate) iterator, not an ItemsView
        return zip(self.users, self.column.tolist())


def as_columns(estimates: Mapping[object, float]) -> tuple[list, np.ndarray]:
    """``(users, float64 estimates)`` of an estimate mapping, in its order."""
    if isinstance(estimates, EstimateColumns):
        return estimates.users, estimates.column
    users = list(estimates)
    return users, np.fromiter(estimates.values(), dtype=np.float64, count=len(users))


# -- merge families: whole-object merges and their cached sliding forms ----------


class _SharedArrayPrefix:
    """The shared-array family (CSE, vHLL): union the array, re-evaluate the users.

    An instance is the family's sliding form: closed epochs as one
    shared-array union plus its users.  Users are held in a
    :class:`~repro.state.UserArena` in merge order: the oldest epoch's
    users in intern order, then each later epoch's new users in its own
    intern order — the order :func:`merged_copy` produces.  The live
    epoch's users are appended as a tail slice (its arena only appends), so
    a query interns only the users it has not seen yet.
    """

    @staticmethod
    def merge(declared: MergeSpec, target, source, refresh: bool) -> None:
        if not refresh:
            # The target's deferred estimates read its array as it stands
            # before the union.  A refresh rewrites them all instead.
            target.settle()
        _union(declared, getattr(target, declared.array), source)
        # Publish source's users (0.0 for new ones) in its first-seen order.
        users, _values = source._arena.estimate_columns()
        target._arena.publish(target._arena.intern_many(users))
        if refresh:
            refresh_estimates_from_state(target)

    @staticmethod
    def refresh(estimator) -> None:
        # The full intern-order population: one column write.
        _users, values = estimator.estimate_fresh_all()
        estimator._arena.set_all_estimates(values)

    @staticmethod
    def fresh(estimator) -> dict[object, float]:
        users, values = estimator.estimate_fresh_all()
        return dict(zip(users, values.tolist()))

    def __init__(self, estimators: Sequence, declared: MergeSpec) -> None:
        self._declared = declared
        first = self._first = estimators[0]
        merged = getattr(first, declared.array).copy()
        users = UserArena(m=first.m, family=first._family, owner="sliding")
        users.adopt(first._arena)
        for other in estimators[1:]:
            _require_shared(declared, first, other)
            _union(declared, merged, other)
            users.adopt(other._arena, published_only=True)
        self._merged = merged
        self._users = users
        self._scratch = None
        self._live_seen = 0

    def query(self, live) -> EstimateColumns:
        declared = self._declared
        _require_shared(declared, self._first, live)
        self._users.adopt(live._arena, self._live_seen, published_only=True)
        self._live_seen = live._arena.n_users
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = self._merged.copy()
        else:
            scratch.copy_from(self._merged)
        # union_update / merge_max recount the global statistics from the
        # merged array, exactly as merge_into leaves them.
        _union(declared, scratch, live)
        values = live._fresh_estimates_for(scratch, self._users.all_positions())
        return EstimateColumns(self._users.users(), values)


class _AdditivePrefix:
    """The additive family (FreeBS, FreeRS): union the shared array, sum the estimates.

    An instance is the family's sliding form: closed epochs as one column
    of left-fold estimate sums.  The sums live in an estimates-only
    :class:`~repro.state.UserArena` whose users are in merge order: the
    oldest epoch's users in intern order, then each later epoch's new
    users.  A query appends the live users the prefix has not seen yet (the
    live arena only appends, and publishes every user it interns) and adds
    the live column on top.
    """

    @staticmethod
    def merge(declared: MergeSpec, target, source, refresh: bool) -> None:
        _union(declared, getattr(target, declared.array), source)
        # target[u] = target.get(u, 0.0) + v for source's users, in its order.
        target._arena.add_estimates_from(source._arena)
        target._pairs_processed += source._pairs_processed
        target._pairs_sampled += source._pairs_sampled

    @staticmethod
    def refresh(estimator) -> None:
        """The accumulated sums are the estimates: nothing to re-evaluate."""

    @staticmethod
    def fresh(estimator) -> dict[object, float]:
        return estimator.estimates()

    def __init__(self, estimators: Sequence, declared: MergeSpec) -> None:
        self._declared = declared
        first = self._first = estimators[0]
        sums = UserArena(owner="sliding")
        for estimator in estimators:
            _require_shared(declared, first, estimator)
            sums.add_estimates_from(estimator._arena)
        self._sums = sums
        self._closed = sums.n_users
        #: Prefix code of each live code seen so far.
        self._live_codes = np.empty(0, dtype=np.int64)

    def query(self, live) -> EstimateColumns:
        _require_shared(self._declared, self._first, live)
        arena = live._arena
        seen, n = self._live_codes.size, arena.n_users
        if n > seen:
            fresh = self._sums.intern_many(arena.users_since(seen))
            self._live_codes = np.concatenate((self._live_codes, fresh))
        sums = self._sums
        values = np.zeros(sums.n_users, dtype=np.float64)
        values[: self._closed] = sums.estimate_slice(self._closed)
        # Codes are unique, so this is one ``sum + live`` per user — the
        # same float addition merge() performs (0.0 + v for new users).
        values[self._live_codes] += arena.estimate_slice(n)
        return EstimateColumns(sums.users(), values)


class _ObjectPrefix:
    """The per-user family (LPC, HLL++): merge the per-user sketches.

    An instance is the family's sliding form: closed epochs as a merged
    estimator (per-user sketch objects), copied and merged with the live
    epoch per query.
    """

    @staticmethod
    def merge(declared: MergeSpec, target, source, refresh: bool) -> None:
        for user, sketch in source._sketches.items():
            mine = target._sketches.get(user)
            if mine is None:
                target._sketches[user] = copy.deepcopy(sketch)
            else:
                mine.merge(sketch)
        users = list(source._sketches)
        codes = target._arena.intern_many(users)
        if refresh:
            target._arena.set_estimates(codes, _sketch_estimates(target, users))
        else:
            target._arena.publish(codes)

    @staticmethod
    def refresh(estimator) -> None:
        users = list(estimator._sketches)
        estimator._arena.set_estimates(
            estimator._arena.intern_many(users), _sketch_estimates(estimator, users)
        )

    @staticmethod
    def fresh(estimator) -> dict[object, float]:
        return estimator.estimates()

    def __init__(self, estimators: Sequence, declared: MergeSpec) -> None:
        self._merged = merged_copy(estimators)

    def query(self, live) -> dict[object, float]:
        combined = copy.deepcopy(self._merged)
        merge_into(combined, live, refresh_estimates=False)
        refresh_estimates_from_state(combined)
        return combined.estimates()


def _sketch_estimates(estimator, users: list) -> np.ndarray:
    """The per-user sketches' current estimates of ``users``, as a column."""
    sketches = estimator._sketches
    return np.fromiter(
        (sketches[user].estimate() for user in users), dtype=np.float64, count=len(users)
    )


#: One implementation per merge family, keyed by :attr:`MergeSpec.family`.
_FAMILIES = {
    ADDITIVE: _AdditivePrefix,
    SHARED_ARRAY: _SharedArrayPrefix,
    PER_USER: _ObjectPrefix,
}


class _ShardedPrefix:
    """Per-shard prefixes, concatenated in shard order (users are disjoint)."""

    def __init__(self, estimators: Sequence) -> None:
        first = estimators[0]
        for other in estimators[1:]:
            _require(
                (other.num_shards, other.seed) == (first.num_shards, first.seed),
                "shard count and routing seed",
            )
        self._parts = [
            sliding_prefix([estimator._shards[shard] for estimator in estimators])
            for shard in range(first.num_shards)
        ]

    def query(self, live) -> EstimateColumns:
        columns = [
            as_columns(part.query(shard)) for part, shard in zip(self._parts, live._shards)
        ]
        users = list(itertools.chain.from_iterable(part_users for part_users, _ in columns))
        return EstimateColumns(users, np.concatenate([values for _, values in columns]))


def sliding_prefix(estimators: Sequence):
    """Cacheable union of closed epochs; ``.query(live)`` adds the live epoch.

    ``prefix.query(live)`` equals ``merged_copy([*estimators, live])
    .estimates()`` — same keys, same order, bit-identical values.  The
    closed-epoch state is never modified, so one prefix serves every query
    against the same live epoch until a rotation closes it.
    """
    if not estimators:
        raise ValueError("need at least one estimator to merge")
    first = estimators[0]
    kind = type(first)
    if any(type(other) is not kind for other in estimators):
        raise TypeError("cannot merge estimators of different classes")
    if isinstance(first, ShardedEstimator):
        return _ShardedPrefix(estimators)
    declared = _declared(first)
    return _FAMILIES[declared.family](estimators, declared)


@hot_path
def additive_rescore(estimators: Sequence, users: Keys) -> tuple[Keys, np.ndarray]:
    """Sliding-window estimates of a few (unique) ``users`` of an additive window.

    Each value is the left fold of the user's per-epoch estimates in ring
    order, starting from 0.0 — the sum ``merged_copy`` computes, so the
    values are bit-identical to a full sliding merge's.  The users come
    back in the order that merge lists them: as given, or for sharded
    epochs grouped by shard (batch order within a shard), and in the form
    given — an ``int64`` column stays one, probing each epoch's integer
    index directly.
    """
    first = estimators[0]
    if isinstance(first, ShardedEstimator):
        shard_ids = first.shards_of(users)
        order = np.argsort(shard_ids, kind="stable")
        grouped = users[order] if isinstance(users, np.ndarray) else key_list(users, order)
        bounds = np.searchsorted(
            shard_ids[order], np.arange(first.num_shards + 1)
        ).tolist()
        parts = [
            additive_rescore(
                [estimator._shards[shard] for estimator in estimators],
                grouped[bounds[shard] : bounds[shard + 1]],
            )[1]
            for shard in range(first.num_shards)
        ]
        return grouped, np.concatenate(parts)
    values = np.zeros(len(users), dtype=np.float64)
    for estimator in estimators:  # repro-lint: disable=RL003(one column per retained epoch: at most window_epochs passes)
        values += estimator._arena.estimate_column(users)
    return users, values
