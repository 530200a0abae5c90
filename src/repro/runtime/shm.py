"""Shared-memory chunk handoff: the parallel ingest runtime's one transport.

Pickling every routed chunk through a pipe costs three copies: pickle in
the coordinator, the pipe, unpickle in the worker.  For the dominant chunk
shape — two fixed-width integer arrays — all of that is avoidable: this
module gives each worker a fixed-slot ring in one
:class:`multiprocessing.shared_memory.SharedMemory` segment, and the
coordinator writes the arrays straight into a free slot (one ``memcpy``)
while the worker reads them back as zero-copy numpy views.

Layout and control flow:

* a worker's segment holds :data:`SLOTS_PER_WORKER` equal slots; slot 0
  starts at offset 0, each slot is ``slot header + payload``;
* slot availability travels through two tiny queues per worker — ``free``
  (worker → coordinator, pre-seeded with every slot id) and ``ready``
  (coordinator → worker: ``("slot", i)``, ``("inline", pickle)`` for
  payloads a slot cannot carry, or ``None`` as the end-of-stream
  sentinel).  Both queues only ever carry slot indices and rare pickles,
  so the bulk bytes never cross a pipe;
* the worker frees a slot only **after** ``update_encoded`` returns: the
  encode path may keep zero-copy views of the slot memory
  (``fold_key_array`` on ``uint64`` input), and freeing earlier would let
  the coordinator overwrite bytes still being read;
* results return on a third queue as ``("ok", state, stats)`` — the
  stats dict carries the worker's chunk/pair counts and encode/update
  timings for the coordinator's metrics registry — or
  ``("error", traceback, repr)``, which the coordinator turns into a
  :class:`~repro.runtime.parallel.WorkerIngestError`.

Backpressure is the ring itself: with every slot in flight the
coordinator blocks acquiring a free slot (polling worker liveness), so
each worker has a bounded buffer of in-flight chunks.  Items that
cannot be written raw (``object``-dtype ids, pre-encoded batches larger
than a slot) fall back to pickling — through the slot when they fit,
inline through the ready queue when they do not — so the transport never
constrains what the routing layer may send, and per-worker FIFO order
(the bit-identity prerequisite) is preserved by the single ready queue.
"""

from __future__ import annotations

import pickle
import struct
import sys
import time
import traceback
from multiprocessing import shared_memory

import numpy as np

from repro.engine.encoding import EncodedBatch
from repro.registry import build


def new_worker_stats() -> dict[str, float]:
    """A fresh per-worker stats accumulator (chunks, pairs, timings).

    Workers live in their own processes, where the coordinator's metrics
    registry is invisible — they count locally (a dict and a few
    ``perf_counter`` reads per *chunk*, negligible against thousands of
    pairs of work) and ship the totals home with their serialised state.
    """
    return {"chunks": 0, "pairs": 0, "encode_seconds": 0.0, "update_seconds": 0.0}


def ingest_item(estimator, item, stats: dict[str, float]) -> None:
    """Encode (if needed) and apply one routed chunk, accumulating stats.

    The timing split (encode vs update) feeds the coordinator's per-worker
    counters.
    """
    if isinstance(item, EncodedBatch):
        batch = item
    else:
        started = time.perf_counter()
        batch = EncodedBatch.from_int_arrays(*item)
        stats["encode_seconds"] += time.perf_counter() - started
    started = time.perf_counter()
    estimator.update_encoded(batch)
    stats["update_seconds"] += time.perf_counter() - started
    stats["chunks"] += 1
    stats["pairs"] += len(batch)

#: Slots per worker ring: enough buffered chunks to keep a worker busy,
#: small enough to bound the coordinator's memory and keep the abort path
#: prompt.
SLOTS_PER_WORKER = 4

#: Slot payload kinds.
KIND_RAW = 0  #: two fixed-width integer arrays written in place
KIND_PICKLED = 1  #: one pickle blob (EncodedBatch / object-dtype arrays)

#: Slot header: kind(u8), users dtype str(15s), items dtype str(15s),
#: users byte length (u64), items byte length (u64) — padded to 64 bytes so
#: payloads start at a cache-line boundary.
_SLOT_HEADER = struct.Struct("<B15s15sQQ")
SLOT_HEADER_BYTES = 64


def slot_size_for(chunk_pairs: int) -> int:
    """Slot bytes needed for a worst-case raw chunk of ``chunk_pairs`` pairs.

    The widest fixed-width integer dtype is 8 bytes, and a routed sub-chunk
    never exceeds the coordinator's chunk size, so ``2 * 8 * chunk_pairs``
    bounds the payload of the raw path (the pickled path falls back to the
    inline queue when it doesn't fit).
    """
    return SLOT_HEADER_BYTES + 16 * max(1, int(chunk_pairs))


def _dtype_token(dtype: np.dtype) -> bytes:
    token = np.dtype(dtype).str.encode("ascii")
    if len(token) > 15:  # pragma: no cover - no numpy int dtype is this long
        raise ValueError(f"dtype token {token!r} too long for the slot header")
    return token


class ShmRing:
    """Coordinator-side handle for one worker's shared-memory slot ring."""

    def __init__(self, context, slot_size: int, n_slots: int = SLOTS_PER_WORKER):
        self.slot_size = int(slot_size)
        self.n_slots = int(n_slots)
        self.shm = shared_memory.SharedMemory(
            create=True, size=self.slot_size * self.n_slots
        )
        #: Free slot ids, worker → coordinator (pre-seeded: all free).
        self.free = context.Queue()
        #: Work items, coordinator → worker; bounded so the rare inline
        #: pickles get the same backpressure as slot payloads.
        self.ready = context.Queue(maxsize=self.n_slots)
        #: ("ok", state) / ("error", traceback, repr), worker → coordinator.
        self.results = context.Queue()
        #: Result pulled early by a liveness probe, parked for collection.
        self.cached_result: tuple | None = None
        for slot in range(self.n_slots):
            self.free.put(slot)

    @property
    def capacity(self) -> int:
        """Payload bytes one slot can carry."""
        return self.slot_size - SLOT_HEADER_BYTES

    def write_raw(self, slot: int, users: np.ndarray, items: np.ndarray) -> None:
        """Write two fixed-width arrays into ``slot`` (one memcpy each)."""
        offset = slot * self.slot_size
        _SLOT_HEADER.pack_into(
            self.shm.buf,
            offset,
            KIND_RAW,
            _dtype_token(users.dtype),
            _dtype_token(items.dtype),
            users.nbytes,
            items.nbytes,
        )
        self._write_array(offset + SLOT_HEADER_BYTES, users)
        self._write_array(offset + SLOT_HEADER_BYTES + users.nbytes, items)

    def write_pickled(self, slot: int, blob: bytes) -> None:
        """Write one pre-pickled item into ``slot`` (must fit the capacity)."""
        if len(blob) > self.capacity:
            raise ValueError("pickle does not fit the slot; send it inline")
        offset = slot * self.slot_size
        _SLOT_HEADER.pack_into(
            self.shm.buf, offset, KIND_PICKLED, b"", b"", len(blob), 0
        )
        self.shm.buf[
            offset + SLOT_HEADER_BYTES : offset + SLOT_HEADER_BYTES + len(blob)
        ] = blob

    def _write_array(self, offset: int, array: np.ndarray) -> None:
        destination = np.ndarray(
            array.shape, dtype=array.dtype, buffer=self.shm.buf, offset=offset
        )
        destination[:] = array

    def close(self) -> None:
        """Release the coordinator's mapping (idempotent)."""
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass

    def unlink(self) -> None:
        """Destroy the segment (coordinator-only; idempotent)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def as_raw_arrays(item) -> tuple[np.ndarray, np.ndarray] | None:
    """The item as two fixed-width arrays, or None when not representable."""
    if (
        isinstance(item, tuple)
        and len(item) == 2
        and isinstance(item[0], np.ndarray)
        and isinstance(item[1], np.ndarray)
        and item[0].ndim == 1
        and item[1].ndim == 1
        and item[0].dtype.kind in "iu"
        and item[1].dtype.kind in "iu"
    ):
        return np.ascontiguousarray(item[0]), np.ascontiguousarray(item[1])
    return None


def read_slot(buf, slot: int, slot_size: int):
    """Decode one slot into the routed item (worker side).

    The raw path returns zero-copy views into the segment — the caller must
    not free the slot until it is completely done with them.
    """
    offset = slot * slot_size
    kind, users_token, items_token, users_bytes, items_bytes = _SLOT_HEADER.unpack_from(
        buf, offset
    )
    start = offset + SLOT_HEADER_BYTES
    if kind == KIND_PICKLED:
        return pickle.loads(bytes(buf[start : start + users_bytes]))
    users_dtype = np.dtype(users_token.rstrip(b"\x00").decode("ascii"))
    items_dtype = np.dtype(items_token.rstrip(b"\x00").decode("ascii"))
    users = np.frombuffer(
        buf, dtype=users_dtype, count=users_bytes // users_dtype.itemsize, offset=start
    )
    items = np.frombuffer(
        buf,
        dtype=items_dtype,
        count=items_bytes // items_dtype.itemsize,
        offset=start + users_bytes,
    )
    return users, items


def shm_worker(
    method: str,
    config,
    expected_users: int,
    shards: int,
    shm_name: str,
    slot_size: int,
    free_queue,
    ready_queue,
    result_queue,
) -> None:
    """Worker process body: replay slot/inline chunks, post serialised state.

    The estimator is rebuilt from the registry with the exact configuration
    the coordinator uses, so its per-shard sub-sketches (hash seeds
    included) match the single-process run's.  Failures of any kind are
    posted as ``("error", traceback, repr)`` — the coordinator cannot see
    this process's exception directly.
    """
    from repro.core import serialization

    # Attaching re-registers the segment with the (process-tree-wide)
    # resource tracker; the tracker's name cache is a set, so this collapses
    # with the coordinator's own registration and the coordinator's unlink
    # clears it — no worker-side bookkeeping needed.
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        estimator = build(method, config, expected_users, shards=shards)
        stats = new_worker_stats()
        while True:
            message = ready_queue.get()
            if message is None:
                break
            tag, value = message
            if tag == "inline":
                item = pickle.loads(value)
                slot = None
            else:
                slot = value
                item = read_slot(shm.buf, slot, slot_size)
            ingest_item(estimator, item, stats)
            # Drop every view of the slot *before* recycling it — the batch
            # may alias slot memory (zero-copy folds), and a freed slot is
            # the coordinator's to overwrite.
            del item
            if slot is not None:
                free_queue.put(slot)
        result_queue.put(("ok", serialization.dumps(estimator), stats))
    except BaseException as error:
        result_queue.put(("error", traceback.format_exc(), repr(error)))
        sys.exit(1)
    finally:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views outlive the loop
            pass
