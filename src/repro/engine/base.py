"""Engine-level batch interface and the chunked stream fast path.

The engine gives every estimator two equivalent update paths:

* the scalar path, ``update(user, item)`` — the paper's streaming model,
  one pair at a time;
* the vectorised path, ``update_encoded(batch)`` — a whole
  :class:`~repro.engine.encoding.EncodedBatch` at once, with numpy doing the
  hashing and change-event detection.

Both paths are required to produce **bit-identical** estimator state (the
test-suite asserts this per estimator on randomized streams), so callers can
pick purely on throughput grounds.  :func:`process_stream` does exactly
that: it chunks an arbitrary pair iterable and routes each chunk through the
batch path when the estimator supports it, falling back to the scalar loop
otherwise.  A stream that holds integer columns (an integer edge file) is
sliced straight into :meth:`EncodedBatch.from_int_arrays` chunks, so none
of its pairs becomes a Python tuple.
:meth:`repro.core.base.CardinalityEstimator.process` delegates here, which
is how the CLI, the experiment runner and the benchmarks all get the fast
path without call-site changes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from typing import Any, TypeVar

from repro.engine.encoding import EncodedBatch
from repro.streams.stream import GraphStream

UserItemPair = tuple[object, object]

_F = TypeVar("_F", bound=Callable[..., object])


def hot_path(func: _F) -> _F:
    """Mark a function as hot-path: vectorized-only, no per-element Python.

    Zero runtime cost — the marker only tags the function so tooling (the
    ``RL003`` checker in :mod:`repro.lint`) holds it to the hot-path purity
    contract: no per-element loops over user collections, no dict hops, no
    numpy calls inside Python loops.  Apply it to any function outside the
    always-hot modules (``engine/kernels.py`` / ``engine/query.py`` /
    ``state/arena.py``) that sits on a per-pair or per-user path.
    """
    func.__repro_hot_path__ = True  # type: ignore[attr-defined]
    return func

#: Default number of pairs per chunk in :func:`process_stream`.  Large enough
#: to amortise numpy call overhead, small enough that the per-chunk scratch
#: arrays (notably the CSE/vHLL position matrices, ``unique_users x m``)
#: stay modest even on adversarial all-distinct-user streams.
DEFAULT_CHUNK_PAIRS = 8192


class BatchUpdatable:
    """Mixin adding the engine's vectorised batch interface to an estimator.

    Subclasses implement :meth:`update_encoded`; the mixin provides the
    pairs-shaped convenience wrapper.  The contract, enforced by the
    test-suite: feeding a stream through the batch path (in any chunking)
    leaves the estimator in exactly the state the scalar path produces.
    """

    def update_batch(self, pairs: Iterable[UserItemPair]) -> None:
        """Encode and process a batch of raw (user, item) pairs."""
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        if not pairs:
            return
        self.update_encoded(EncodedBatch.from_pairs(pairs))

    def update_encoded(self, batch: EncodedBatch) -> None:
        """Process a pre-encoded batch (implemented per estimator)."""
        raise NotImplementedError


def supports_batch(estimator: object) -> bool:
    """True if ``estimator`` exposes the batch update path."""
    return callable(getattr(estimator, "update_batch", None))


def supports_encoded(estimator: object) -> bool:
    """True if ``estimator`` takes an :class:`EncodedBatch` (``update_encoded``).

    A batch carries item folds, not items, so an estimator with only the
    scalar ``update`` cannot take one; a sharded estimator can when every
    shard can.
    """
    shards = getattr(estimator, "shards", None)
    if shards is not None:
        return all(supports_encoded(shard) for shard in shards)
    return callable(getattr(estimator, "update_encoded", None))


def process_stream(
    estimator: Any, stream: Iterable[UserItemPair], chunk_size: int | None = None
) -> Any:
    """Consume a stream through the fastest available path; return the estimator.

    Batch-capable estimators receive the stream in chunks of ``chunk_size``
    pairs (default :data:`DEFAULT_CHUNK_PAIRS`); everything else gets the
    plain scalar loop.  A column-backed :class:`~repro.streams.GraphStream`
    reaches an estimator that takes encoded batches as one
    :meth:`EncodedBatch.from_int_arrays` per column slice, on the same chunk
    boundaries.  Results are identical either way.
    """
    if not supports_batch(estimator):
        for user, item in stream:
            estimator.update(user, item)
        return estimator
    if chunk_size is None:
        chunk = DEFAULT_CHUNK_PAIRS
    else:
        chunk = int(chunk_size)
        if chunk <= 0:
            raise ValueError("chunk_size must be positive")
    if isinstance(stream, GraphStream) and stream.columnar and supports_encoded(estimator):
        users, items = stream.to_int_arrays()
        for start in range(0, len(users), chunk):
            batch = EncodedBatch.from_int_arrays(
                users[start : start + chunk], items[start : start + chunk]
            )
            estimator.update_encoded(batch)
        return estimator
    buffer: list[UserItemPair] = []
    append = buffer.append
    for pair in stream:
        append(pair)
        if len(buffer) >= chunk:
            estimator.update_batch(buffer)
            buffer = []
            append = buffer.append
    if buffer:
        estimator.update_batch(buffer)
    return estimator
