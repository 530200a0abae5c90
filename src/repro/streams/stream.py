"""Replayable graph streams.

A :class:`GraphStream` wraps a *factory* of (user, item) pairs so that the
same stream can be replayed for every estimator under comparison — essential
for the paper's experiments, where six methods must observe exactly the same
edge sequence.  Streams can be built from a list, a generator factory or a
file, and expose exact summary statistics (user count, per-user
cardinalities, total cardinality) computed on demand and cached.  A stream
read from an all-integer edge file holds integer columns instead
(:meth:`GraphStream.from_columns`) and builds its pair list only when asked.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

UserItemPair = tuple[object, object]
TimedPair = tuple[object, object, float]


def _float_column(values: Iterable[float]) -> np.ndarray:
    """``values`` as a new ``float64`` array (``float()`` of each)."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        values = list(values)
    return np.array(values, dtype=np.float64)


def materialize(pairs: Iterable[UserItemPair]) -> list[UserItemPair]:
    """Materialise a pair iterable into a list (convenience re-export)."""
    return list(pairs)


class GraphStream:
    """A replayable stream of (user, item) pairs with cached exact statistics."""

    def __init__(
        self,
        source: Callable[[], Iterable[UserItemPair]] | list[UserItemPair],
        name: str = "stream",
        timestamps: Sequence[float] | None = None,
    ) -> None:
        if callable(source):
            self._factory: Callable[[], Iterable[UserItemPair]] = source
            self._pairs: list[UserItemPair] | None = None
        else:
            pairs = list(source)
            self._pairs = pairs
            self._factory = lambda: pairs
        self.name = name
        self._timestamps = None if timestamps is None else _float_column(timestamps)
        self._columns: tuple[np.ndarray, np.ndarray] | None = None
        if self._timestamps is not None and self._pairs is not None:
            if len(self._timestamps) != len(self._pairs):
                raise ValueError("timestamps must have one entry per pair")
        self._stats: dict[str, object] | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[UserItemPair], name: str = "stream") -> GraphStream:
        """Build a stream from an in-memory iterable of pairs."""
        return cls(list(pairs), name=name)

    @classmethod
    def from_columns(
        cls,
        users: np.ndarray,
        items: np.ndarray,
        name: str = "stream",
        timestamps: Sequence[float] | np.ndarray | None = None,
    ) -> GraphStream:
        """Build a stream over integer ``users`` and ``items`` columns.

        The pair list (Python ints) is built only when :meth:`pairs` is
        called; :meth:`to_int_arrays` returns the columns themselves.
        """
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError("users and items must be one-dimensional and equally long")
        stream = cls(lambda: zip(users.tolist(), items.tolist()), name=name)
        stream._columns = (users, items)
        if timestamps is not None:
            stream._timestamps = _float_column(timestamps)
            if stream._timestamps.shape != users.shape:
                raise ValueError("timestamps must have one entry per pair")
        return stream

    # -- iteration -------------------------------------------------------------

    def __iter__(self) -> Iterator[UserItemPair]:
        return iter(self._factory())

    def pairs(self) -> list[UserItemPair]:
        """Return (and cache) the full list of pairs."""
        if self._pairs is None:
            self._pairs = list(self._factory())
            cached = self._pairs
            self._factory = lambda: cached
        return self._pairs

    def __len__(self) -> int:
        if self._columns is not None:
            return int(self._columns[0].size)
        return len(self.pairs())

    @property
    def columnar(self) -> bool:
        """True when the stream holds integer columns (:meth:`from_columns`)."""
        return self._columns is not None

    def prefix(self, length: int) -> GraphStream:
        """Return a new stream containing only the first ``length`` pairs."""
        timestamps = None if self._timestamps is None else self._timestamps[:length]
        return GraphStream(
            self.pairs()[:length], name=f"{self.name}[:{length}]", timestamps=timestamps
        )

    # -- timestamps ------------------------------------------------------------

    @property
    def has_timestamps(self) -> bool:
        """True when explicit arrival timestamps were attached to this stream."""
        return self._timestamps is not None

    def timestamps(self) -> list[float]:
        """Arrival timestamps, one per pair.

        Defaults to the monotonic event index (0, 1, 2, ...) when no explicit
        timestamps were attached, so every existing dataset works unchanged
        with time-based consumers such as the monitoring subsystem.
        """
        if self._timestamps is not None:
            if len(self._timestamps) != len(self):
                raise ValueError("timestamps must have one entry per pair")
            return self._timestamps.tolist()
        return [float(index) for index in range(len(self))]

    def timestamp_array(self) -> np.ndarray | None:
        """The explicit arrival timestamps as a ``float64`` array (None without)."""
        return self._timestamps

    def with_timestamps(self, timestamps: Sequence[float]) -> GraphStream:
        """Return a copy of this stream with explicit arrival timestamps."""
        return GraphStream(self.pairs(), name=self.name, timestamps=timestamps)

    def iter_timed(self) -> Iterator[TimedPair]:
        """Iterate ``(user, item, timestamp)`` triples."""
        return iter(
            [(user, item, ts) for (user, item), ts in zip(self.pairs(), self.timestamps())]
        )

    def to_int_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the integer columns ``(users, items)`` of a :meth:`from_columns` stream.

        This is the input shape of the engine's vectorised encoder
        (:meth:`repro.engine.EncodedBatch.from_int_arrays`).  Raises
        ``TypeError`` for a stream without columns (see :attr:`columnar`).
        """
        if self._columns is None:
            raise TypeError("to_int_arrays requires a column-backed stream (from_columns)")
        return self._columns

    # -- exact statistics ------------------------------------------------------

    def _compute_stats(self) -> dict[str, object]:
        cardinalities: dict[object, set] = {}
        total_pairs = 0
        for user, item in self:
            total_pairs += 1
            cardinalities.setdefault(user, set()).add(item)
        per_user = {user: len(items) for user, items in cardinalities.items()}
        return {
            "total_pairs": total_pairs,
            "user_count": len(per_user),
            "cardinalities": per_user,
            "total_cardinality": sum(per_user.values()),
            "max_cardinality": max(per_user.values()) if per_user else 0,
        }

    def stats(self) -> dict[str, object]:
        """Return exact summary statistics of the stream (cached)."""
        if self._stats is None:
            self._stats = self._compute_stats()
        return self._stats

    def cardinalities(self) -> dict[object, int]:
        """Exact per-user cardinalities."""
        return dict(self.stats()["cardinalities"])  # type: ignore[arg-type]

    @property
    def user_count(self) -> int:
        """Number of distinct users in the stream.

        Counts users alone, with dict-key equality as :meth:`stats` does
        (``7`` and ``"7"`` are two users, ``True`` and ``1`` one), without
        computing the per-user item sets.
        """
        if self._stats is not None:
            return int(self._stats["user_count"])  # type: ignore[arg-type]
        if self._columns is not None:
            return int(np.unique(self._columns[0]).size)
        return len({user for user, _ in self})

    @property
    def total_cardinality(self) -> int:
        """Sum of all user cardinalities (distinct pairs)."""
        return int(self.stats()["total_cardinality"])  # type: ignore[arg-type]

    @property
    def max_cardinality(self) -> int:
        """Largest per-user cardinality."""
        return int(self.stats()["max_cardinality"])  # type: ignore[arg-type]

    @property
    def duplicate_ratio(self) -> float:
        """Fraction of stream pairs that are duplicates of earlier pairs."""
        stats = self.stats()
        total_pairs = int(stats["total_pairs"])  # type: ignore[arg-type]
        if total_pairs == 0:
            return 0.0
        return 1.0 - int(stats["total_cardinality"]) / total_pairs  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphStream(name={self.name!r})"
