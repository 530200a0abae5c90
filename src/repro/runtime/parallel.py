"""Multiprocess parallel ingest: partition users across shard workers.

The paper's scale-out story: a :class:`~repro.engine.ShardedEstimator`
partitions users across ``K`` independent sub-sketches, and workers owning
disjoint shard sets can ingest disjoint slices of the stream and later merge
their states into exactly the estimator a single process would have built.
This module turns that property into an execution path:

1. the **coordinator** reads the stream in chunks, derives per-pair shard
   ids with the engine's routing hash, and streams each worker the slice of
   pairs whose shards it owns (worker ``w`` owns shards ``{k : k % W == w}``).
   For all-integer streams only the user folds are computed serially — the
   raw id slices ship to the workers, which run the full vectorised encode
   themselves, keeping the coordinator's serial fraction small; other
   streams are encoded once by the coordinator
   (:class:`~repro.engine.EncodedBatch`) and split with
   :meth:`~repro.engine.EncodedBatch.subset`;
2. each **worker** builds the same ``K``-shard estimator from the central
   method registry, replays its sub-batches through the vectorised
   ``update_encoded`` path, and returns its serialised state;
3. the coordinator restores the worker states and folds them into one final
   estimator via the sketch-level :meth:`~repro.engine.ShardedEstimator.merge`
   (legal because the touched shard sets are disjoint by construction).

One chunk transport carries step 1's slices to the workers: each slice is
written into a per-worker shared-memory slot ring (:mod:`repro.runtime.shm`)
— one memcpy in, a zero-copy numpy view out — and slices a slot cannot
carry fall back to pickling.  The ring preserves per-worker FIFO order and
the backpressure/liveness semantics: a bounded buffer of four in-flight
chunks per worker, a per-chunk liveness check, and a prompt
:class:`WorkerIngestError` (worker id + remote traceback) when a worker
dies, with buffered chunks drained so surviving siblings stop at their
next read.

Because shard routing is deterministic in the user id, each shard sees
exactly the pair sub-sequence it would have seen in a single-process run with
the same chunking, and the batch paths are bit-identical to the scalar paths
— so the merged estimator's estimates are **bit-identical** to the
single-process ``shards=K`` run for any worker count (asserted by the
test-suite and the CI smoke job).  ``workers=1`` runs the
identical chunk/encode/route loop in-process, which is the fair baseline the
speedup benchmark measures against.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import pickle
import queue as queue_module
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.base import CardinalityEstimator
from repro.engine.base import DEFAULT_CHUNK_PAIRS
from repro.engine.encoding import EncodedBatch
from repro.engine.sharded import ShardedEstimator, route_pair_shards, route_user_hashes
from repro.hashing import fold_key_array
from repro.registry import build
from repro.runtime.shm import ShmRing, as_raw_arrays, shm_worker, slot_size_for

UserItemPair = tuple[object, object]

_log = obs.get_logger("runtime.parallel")


class WorkerIngestError(RuntimeError):
    """A shard worker failed mid-ingest.

    Raised by the coordinator as soon as a worker's death is observed —
    during routing, while blocked on a full ring, or at result collection —
    instead of leaving the run to grind on (or, worse, block forever on a
    ring the dead worker will never drain).  Carries the failing worker's
    index and the worker-side traceback text.
    """

    def __init__(self, worker: int, cause: BaseException, remote_traceback: str = ""):
        detail = f": {cause}" if str(cause) else ""
        message = f"ingest worker {worker} failed with {type(cause).__name__}{detail}"
        if remote_traceback:
            message += f"\n--- worker {worker} traceback ---\n{remote_traceback}"
        super().__init__(message)
        self.worker = worker
        self.remote_traceback = remote_traceback
        # Construction is the one point every raise site passes through, so
        # the failure counter and the structured record live here.
        obs.counter("ingest.parallel.worker_failures").add()
        _log.error(
            "ingest_worker_failed",
            worker=worker,
            cause=f"{type(cause).__name__}: {cause}",
            has_remote_traceback=bool(remote_traceback),
        )


def _drain_queues(queues) -> None:
    """Discard buffered chunks so surviving workers stop at the next get().

    Called on the abort path: live siblings should see their sentinel on the
    next queue read instead of first chewing through a backlog of chunks
    whose merged result will never be used.
    """
    for chunk_queue in queues:
        while True:
            try:
                chunk_queue.get_nowait()
            except queue_module.Empty:
                break
            except (EOFError, BrokenPipeError, ConnectionError):  # manager gone
                break


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one (possibly parallel) ingest run."""

    #: The merged estimator (a ``K``-shard :class:`ShardedEstimator`).
    estimator: CardinalityEstimator
    method: str
    workers: int
    shards: int
    #: Pairs ingested (duplicates included).
    pairs: int
    #: Wall-clock seconds of the ingest (encode + route + update + merge).
    seconds: float
    #: Chunk-handoff transport used ("shm"; "none" for workers=1).
    transport: str = "none"

    @property
    def pairs_per_second(self) -> float:
        """Ingest throughput; 0.0 for an empty or instantaneous run."""
        return self.pairs / self.seconds if self.seconds > 0 else 0.0

    def estimates(self) -> dict[object, float]:
        """Per-user estimates of the merged estimator."""
        return self.estimator.estimates()


def worker_for_shards(shard_ids: np.ndarray, workers: int) -> np.ndarray:
    """Owning worker of each shard id: the round-robin rule ``shard % W``.

    The single definition of the partition — the coordinator's routing and
    :func:`owned_shards` both derive from it, so they cannot drift apart
    (drift would break the disjoint-shard merge contract).
    """
    return shard_ids % workers


def owned_shards(worker: int, workers: int, shards: int) -> list[int]:
    """Shard ids owned by ``worker`` (the inverse view of the same rule)."""
    all_shards = np.arange(shards)
    return all_shards[worker_for_shards(all_shards, workers) == worker].tolist()


def _raw_int_arrays(stream):
    """The stream as two integer arrays, or None when not representable."""
    if hasattr(stream, "to_int_arrays"):
        try:
            return stream.to_int_arrays()
        except TypeError:
            return None
    return None


def _encoded_chunks(stream, chunk_size: int) -> Iterator[EncodedBatch]:
    """Encode a stream into :class:`EncodedBatch` chunks of ``chunk_size`` pairs.

    All-integer :class:`~repro.streams.GraphStream` inputs take the fully
    vectorised array encoder (no per-pair Python fold); everything else falls
    back to the generic pair encoder.  Both produce bit-identical folds, and
    the chunk boundaries match :func:`repro.engine.base.process_stream`'s, so
    the resulting estimator state is independent of the path taken.
    """
    arrays = _raw_int_arrays(stream)
    if arrays is not None:
        users, items = arrays
        for start in range(0, len(users), chunk_size):
            yield EncodedBatch.from_int_arrays(
                users[start : start + chunk_size], items[start : start + chunk_size]
            )
        return
    buffer: list[UserItemPair] = []
    for pair in stream:
        buffer.append(pair)
        if len(buffer) >= chunk_size:
            yield EncodedBatch.from_pairs(buffer)
            buffer = []
    if buffer:
        yield EncodedBatch.from_pairs(buffer)


def _route_stream(
    stream,
    chunk_size: int,
    shards: int,
    workers: int,
    seed: int,
    send: Callable[[int, object], None],
    check: Callable[[], None],
) -> int:
    """Route a stream's chunks to their owning workers; return the pair count.

    ``send(worker, item)`` delivers one routed slice (raw ``(users,
    items)`` arrays on the integer fast path, an :class:`EncodedBatch`
    otherwise) and ``check()`` is the per-chunk liveness probe — a dead
    worker whose buffer never fills (few pairs route to it) must still abort
    the run now, not at collection.
    """
    pairs = 0
    arrays = _raw_int_arrays(stream)
    if arrays is not None:
        # Fast path: route on the user folds alone and ship raw id slices;
        # the workers run the full encode in parallel.
        users, items = arrays
        for offset in range(0, len(users), chunk_size):
            check()
            chunk_users = users[offset : offset + chunk_size]
            chunk_items = items[offset : offset + chunk_size]
            pairs += len(chunk_users)
            folds = fold_key_array(chunk_users)
            pair_workers = worker_for_shards(
                route_user_hashes(folds, shards, seed), workers
            )
            for w in np.unique(pair_workers):
                mask = pair_workers == w
                send(int(w), (chunk_users[mask], chunk_items[mask]))
    else:
        for batch in _encoded_chunks(stream, chunk_size):
            check()
            pairs += len(batch)
            pair_shards = route_pair_shards(batch, shards, seed)
            pair_workers = worker_for_shards(pair_shards, workers)
            for w in np.unique(pair_workers):
                send(int(w), batch.subset(pair_workers == w))
    return pairs


# -- shm transport (coordinator side) -------------------------------------------


def _check_ring_workers(processes, rings) -> None:
    """Raise promptly if any shm worker process has died.

    A worker that exited cleanly posted ``("ok", state, stats)`` first —
    park that on the ring for collection.  Anything else (posted error, or death
    without a word: segfault, OOM kill) aborts the run.
    """
    for worker, (process, ring) in enumerate(zip(processes, rings)):
        if process.is_alive() or ring.cached_result is not None:
            continue
        try:
            result = ring.results.get_nowait()
        except queue_module.Empty:
            result = None
        if result is not None and result[0] == "ok":
            ring.cached_result = result
            continue
        if result is not None:
            _tag, remote_tb, cause_repr = result
            raise WorkerIngestError(worker, RuntimeError(cause_repr), remote_tb)
        raise WorkerIngestError(
            worker,
            RuntimeError(f"worker process exited with code {process.exitcode}"),
        )


def _ring_send(ring: ShmRing, item, check: Callable[[], None], worker: int) -> None:
    """Deliver one routed slice through a ring slot (or inline when too big).

    Backpressure is slot acquisition: with all slots in flight this blocks
    on the free queue, polling ``check()`` so a worker crash surfaces as
    :class:`WorkerIngestError` instead of a hang.
    """
    obs.counter("ingest.parallel.chunks", transport="shm").add()
    raw = as_raw_arrays(item)
    blob = None
    if raw is None or raw[0].nbytes + raw[1].nbytes > ring.capacity:
        blob = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
        if len(blob) > ring.capacity:
            # Oversize fallback: straight through the (bounded) ready queue,
            # which preserves per-worker FIFO order with the slot payloads.
            obs.counter("ingest.shm.pickle_fallbacks", path="inline").add()
            _log.debug(
                "shm_pickle_fallback", path="inline", worker=worker, bytes=len(blob)
            )
            _ring_put(ring, ("inline", blob), check)
            return
        obs.counter("ingest.shm.pickle_fallbacks", path="slot").add()
        _log.debug("shm_pickle_fallback", path="slot", worker=worker, bytes=len(blob))
    while True:
        try:
            slot = ring.free.get(timeout=1.0)
            break
        except queue_module.Empty:
            check()
    if blob is None:
        ring.write_raw(slot, *raw)
    else:
        ring.write_pickled(slot, blob)
    if obs.REGISTRY.enabled:
        try:
            free_slots = ring.free.qsize()
        except NotImplementedError:  # pragma: no cover - macOS
            free_slots = None
        if free_slots is not None:
            obs.gauge("ingest.shm.slots_inflight", worker=str(worker)).set(
                ring.n_slots - free_slots
            )
    _ring_put(ring, ("slot", slot), check)


def _ring_put(ring: ShmRing, message, check: Callable[[], None]) -> None:
    while True:
        try:
            ring.ready.put(message, timeout=1.0)
            return
        except queue_module.Full:
            check()


def _collect_ring_result(worker: int, process, ring: ShmRing) -> tuple[str, dict]:
    """One worker's ``(serialised state, stats)``, or :class:`WorkerIngestError`."""
    result = ring.cached_result
    while result is None:
        try:
            result = ring.results.get(timeout=1.0)
        except queue_module.Empty:
            if process.is_alive():
                continue
            # Dead without a visible result: grant one grace read for bytes
            # still in the pipe (the queue feeder flushes at process exit).
            try:
                result = ring.results.get(timeout=2.0)
            except queue_module.Empty:
                raise WorkerIngestError(
                    worker,
                    RuntimeError(
                        f"worker process exited with code {process.exitcode} "
                        "without posting a result"
                    ),
                ) from None
    if result[0] == "ok":
        return result[1], result[2]
    _tag, remote_tb, cause_repr = result
    raise WorkerIngestError(worker, RuntimeError(cause_repr), remote_tb)


def _record_worker_stats(worker: int, stats: dict) -> None:
    """Fold one worker's shipped stats into the coordinator's registry."""
    if not stats:
        return
    label = str(worker)
    obs.counter("ingest.parallel.worker_chunks", transport="shm", worker=label).add(
        stats.get("chunks", 0)
    )
    obs.counter(
        "ingest.parallel.worker_encode_seconds", transport="shm", worker=label
    ).add(stats.get("encode_seconds", 0.0))
    obs.counter(
        "ingest.parallel.worker_update_seconds", transport="shm", worker=label
    ).add(stats.get("update_seconds", 0.0))


def _shm_parallel_ingest(
    stream, method, config, expected_users, workers, shards, chunk_size
) -> tuple[list[str], int]:
    """Run the multi-worker ingest; return (worker payloads, pair count)."""
    import multiprocessing

    context = multiprocessing.get_context()
    rings = [ShmRing(context, slot_size_for(chunk_size)) for _ in range(workers)]
    processes = [
        context.Process(
            target=shm_worker,
            args=(
                method,
                config,
                expected_users,
                shards,
                ring.shm.name,
                ring.slot_size,
                ring.free,
                ring.ready,
                ring.results,
            ),
            daemon=True,
        )
        for ring in rings
    ]
    try:
        for process in processes:
            process.start()

        def check() -> None:
            _check_ring_workers(processes, rings)

        try:
            pairs = _route_stream(
                stream,
                chunk_size,
                shards,
                workers,
                config.seed,
                lambda w, item: _ring_send(rings[w], item, check, w),
                check,
            )
        except WorkerIngestError:
            # Cancel the siblings: discard their buffered chunks so the
            # sentinels delivered below are the next thing they read.
            _drain_queues(ring.ready for ring in rings)
            raise
        finally:
            # Always deliver the sentinels: a worker blocked on get() would
            # otherwise never exit.  A dead process needs none — and its
            # full ready queue would never drain, so don't block on it.
            for process, ring in zip(processes, rings):
                while process.is_alive():
                    try:
                        ring.ready.put(None, timeout=0.5)
                        break
                    except queue_module.Full:
                        continue
        payloads = []
        for worker, (process, ring) in enumerate(zip(processes, rings)):
            payload, stats = _collect_ring_result(worker, process, ring)
            _record_worker_stats(worker, stats)
            payloads.append(payload)
        return payloads, pairs
    finally:
        for process in processes:
            if process.pid is not None:
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=5.0)
        for ring in rings:
            ring.close()
            ring.unlink()


def parallel_ingest(
    stream: Iterable[UserItemPair],
    method: str = "FreeRS",
    config=None,
    expected_users: int = 1000,
    workers: int = 1,
    shards: int | None = None,
    chunk_size: int | None = None,
) -> IngestReport:
    """Ingest a stream with ``workers`` processes; return the merged estimator.

    Parameters
    ----------
    stream:
        Iterable of (user, item) pairs; a :class:`~repro.streams.GraphStream`
        of integer ids takes the fully vectorised encode path.
    method:
        Method name from the central registry.
    config:
        Dimensioning configuration (defaults to
        :class:`~repro.experiments.config.ExperimentConfig`); the seed also
        seeds the shard routing, so runs with equal configs are comparable.
    expected_users:
        Population used to dimension the per-user baselines.
    workers:
        Ingest processes.  ``1`` runs the same chunk/encode/route loop
        in-process (no worker processes) — the baseline the benchmark
        compares against; more hand their slices over shared-memory slot
        rings (:mod:`repro.runtime.shm`).
    shards:
        Shard count ``K`` of the underlying :class:`ShardedEstimator`;
        defaults to ``workers`` and must be ``>= workers``.  Runs with equal
        ``(config, shards)`` are bit-identical for any worker count.
    chunk_size:
        Pairs per encoded chunk (default
        :data:`~repro.engine.base.DEFAULT_CHUNK_PAIRS`).
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    if shards is None:
        shards = max(workers, 1)
    if shards < workers:
        raise ValueError(
            f"shards ({shards}) must be at least the worker count ({workers}); "
            "each worker needs at least one shard to own"
        )
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_PAIRS
    elif chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if config is None:
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig()

    start = time.perf_counter()
    if workers == 1:
        estimator = build(method, config, expected_users, shards=shards)
        pairs = 0
        for batch in _encoded_chunks(stream, chunk_size):
            pairs += len(batch)
            estimator.update_encoded(batch)
        obs.counter("ingest.parallel.pairs", transport="none").add(pairs)
        obs.histogram("ingest.parallel.run_seconds", transport="none").observe(
            time.perf_counter() - start
        )
        return IngestReport(
            estimator=estimator,
            method=method,
            workers=1,
            shards=shards,
            pairs=pairs,
            seconds=time.perf_counter() - start,
        )

    payloads, pairs = _shm_parallel_ingest(
        stream, method, config, expected_users, workers, shards, chunk_size
    )
    obs.counter("ingest.parallel.pairs", transport="shm").add(pairs)
    obs.histogram("ingest.parallel.run_seconds", transport="shm").observe(
        time.perf_counter() - start
    )

    from repro.core import serialization

    merged = build(method, config, expected_users, shards=shards)
    assert isinstance(merged, ShardedEstimator)
    for payload in payloads:
        merged.merge(serialization.loads(payload))
    return IngestReport(
        estimator=merged,
        method=method,
        workers=workers,
        shards=shards,
        pairs=pairs,
        seconds=time.perf_counter() - start,
        transport="shm",
    )
