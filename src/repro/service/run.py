"""Orchestration: one call that wires monitor, ingest thread and server.

:func:`serve_monitor` is the programmatic face of ``repro.cli serve``: it
starts the asyncio TCP server over an :class:`EstimateService`, optionally
drives a recorded stream into the monitor on a background
:class:`~repro.runtime.handle.IngestHandle` (refreshing the read snapshot
every ``refresh_every`` batches, checkpointing every ``snapshot_every``
batches), announces readiness as a JSONL record on the feed callback, and
serves until cancelled.  After the stream is exhausted the server stays up
— a drained monitor is still queryable, which is also what the smoke test
relies on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import asyncio

import numpy as np

from repro import obs
from repro.monitor.snapshot import SnapshotStore
from repro.monitor.spreader import SpreaderMonitor
from repro.runtime.handle import ingest_handle_for_monitor
from repro.service.server import EstimateServer, EstimateService

UserItemPair = tuple[object, object]

#: Callback receiving JSONL-ready lifecycle records (serving, ingest end).
Announcer = Callable[[dict[str, object]], None]


def _null_announce(_record: dict[str, object]) -> None:
    return None


async def serve_monitor(
    monitor: SpreaderMonitor,
    pairs: Iterable[UserItemPair] | None = None,
    timestamps: Sequence[float] | np.ndarray | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    batch_size: int = 2048,
    rate: float | None = None,
    refresh_every: int = 1,
    snapshot_store: SnapshotStore | None = None,
    snapshot_every: int = 0,
    announce: Announcer | None = None,
    ready: asyncio.Event | None = None,
    metrics_port: int | None = None,
) -> None:
    """Serve ``monitor`` over TCP, optionally ingesting ``pairs`` meanwhile.

    ``pairs`` (with optional ``timestamps``) is ingested from the monitor's
    resume offset on, in lazily made batches of ``batch_size``
    (:func:`~repro.runtime.handle.batch_slices`): a column-backed
    :class:`~repro.streams.GraphStream` reaches the monitor as one encoded
    batch per column slice.

    Runs until cancelled.  On cancellation the ingest thread is stopped, a
    final checkpoint is written when a ``snapshot_store`` is configured,
    and the server sockets are closed.  ``metrics_port`` (``0`` = any free
    port) additionally serves the Prometheus text exposition of the metrics
    registry on ``http://host:metrics_port/metrics``; the bound port rides
    in the ``serving`` announce record as ``metrics_port``.
    """
    if refresh_every <= 0:
        raise ValueError("refresh_every must be positive")
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be non-negative")
    if snapshot_every and snapshot_store is None:
        raise ValueError("snapshot_every requires a snapshot_store")
    announce = announce or _null_announce

    service = EstimateService(monitor)
    handle = None
    # Ingest offset of the newest checkpoint written; a statically served
    # monitor (no stream) never changes, so its restored state counts as
    # already checkpointed.
    last_checkpoint = [monitor.window.pairs_ingested if pairs is None else -1]

    def checkpoint() -> None:
        """Save unless the current offset is already checkpointed."""
        if snapshot_store is None:
            return
        offset = monitor.window.pairs_ingested
        if offset != last_checkpoint[0]:
            snapshot_store.save(monitor)
            last_checkpoint[0] = offset

    if pairs is not None:
        skip = monitor.window.pairs_ingested  # resume offset of a restored monitor

        def on_batch(batches_done: int) -> None:
            # Runs on the ingest thread, under the service lock: the
            # exported snapshot is always a batch-boundary state.
            if batches_done % refresh_every == 0:
                service.refresh()
            if snapshot_every and batches_done % snapshot_every == 0:
                checkpoint()

        handle = ingest_handle_for_monitor(
            monitor,
            pairs,
            timestamps=timestamps,
            batch_size=batch_size,
            rate=rate,
            on_batch=on_batch,
            lock=service.lock,
            start=skip,
        )
        service.attach_ingest(handle)

    metrics_server = None
    if metrics_port is not None:
        metrics_server = obs.start_http_server(metrics_port, host=host)

    server = EstimateServer(service, host=host, port=port)
    await server.start()
    serving_record: dict[str, object] = {
        "type": "serving",
        "host": server.host,
        "port": server.port,
        "pairs_ingested": monitor.window.pairs_ingested,
        "ingesting": handle is not None,
    }
    if metrics_server is not None:
        serving_record["metrics_port"] = metrics_server.port
    announce(serving_record)
    if ready is not None:
        ready.set()

    def _finalize_ingest() -> None:
        # Runs on the default executor: the lock is shared with long sketch
        # merges (`sliding`), so acquiring it on the event loop would stall
        # every connection until the merge finishes.
        with service.lock:
            service.refresh()
            checkpoint()

    async def watch_ingest() -> None:
        if handle is None:
            return
        handle.start()
        while not handle.finished:
            await asyncio.sleep(0.05)
        await asyncio.get_running_loop().run_in_executor(None, _finalize_ingest)
        record: dict[str, object] = {
            "type": "ingest-finished",
            "pairs_ingested": monitor.window.pairs_ingested,
            "batches": handle.batches_done,
        }
        if handle.error is not None:
            record["type"] = "ingest-failed"
            record["error"] = repr(handle.error)
        announce(record)

    watcher = asyncio.ensure_future(watch_ingest())
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        def _shutdown_ingest() -> None:
            # Executor-side shutdown: joining the ingest thread and taking
            # the shared lock for the final checkpoint both block, and the
            # loop must keep draining in-flight connections meanwhile.
            if handle is not None:
                handle.stop()
                try:
                    handle.join(timeout=10.0)
                except RuntimeError:
                    pass  # ingest failure was already announced / is in stats
            if snapshot_store is not None:
                with service.lock:
                    checkpoint()

        try:
            shutdown = asyncio.get_running_loop().run_in_executor(
                None, _shutdown_ingest
            )
            try:
                await asyncio.shield(shutdown)
            except asyncio.CancelledError:
                # Cancelled again mid-shutdown: the executor thread still
                # finishes the join + checkpoint; only the wait is abandoned.
                pass
        finally:
            watcher.cancel()
            try:
                # Join the cancellation: watch_ingest may be mid-finalize on
                # the executor, and tearing the loop down under it loses that
                # work (and swallows any exception it was about to raise).
                await asyncio.shield(watcher)
            except asyncio.CancelledError:
                pass
        if metrics_server is not None:
            metrics_server.close()
        await asyncio.shield(server.close())
