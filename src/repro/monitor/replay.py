"""Rate-controlled replay of a dataset through a spreader monitor.

:func:`replay_feed` drives a :class:`~repro.monitor.spreader.SpreaderMonitor`
over a timestamped stream in batches and yields a JSONL-ready feed of
records:

* ``{"type": "window", ...}`` — one per closed epoch: the epoch's metadata
  and tumbling top spreaders (exact per epoch), plus the sliding window's
  top spreaders and total estimate as of the end of the ingesting batch —
  the monitor evaluates once per batch, so when one batch closes several
  epochs their records share the same (post-batch) sliding state;
* ``{"type": "alert", ...}`` — one per threshold-crossing event (see
  :class:`~repro.monitor.spreader.AlertEvent`);
* ``{"type": "snapshot", ...}`` — one per checkpoint written;
* ``{"type": "summary", ...}`` — one final record with lifetime totals.

``rate`` throttles the replay to roughly that many pairs per wall-clock
second (None = as fast as possible), which turns any recorded dataset into
a stand-in for live traffic.  ``skip_pairs`` fast-forwards a resumed replay
past the pairs a restored snapshot has already seen.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import time

import numpy as np

from repro.monitor.snapshot import SnapshotStore
from repro.monitor.spreader import SpreaderMonitor
from repro.monitor.view import wire_user as _json_user
from repro.monitor.window import Epoch
from repro.runtime.handle import batch_slices

UserItemPair = tuple[object, object]


def _top_to_json(ranked: Sequence[tuple[object, float]]) -> list[list[object]]:
    return [[_json_user(user), round(float(estimate), 3)] for user, estimate in ranked]


def _window_record(monitor: SpreaderMonitor, epoch: Epoch) -> dict[str, object]:
    # Reuse the merge and the ranking the monitor's evaluation just computed
    # for this batch (the window state has not changed since).
    window_estimates = monitor.last_window_estimates()
    epoch_estimates = epoch.estimates()
    tumbling_top = sorted(epoch_estimates.items(), key=lambda pair: pair[1], reverse=True)
    return {
        "type": "window",
        **epoch.summary(),
        "users": len(epoch_estimates),
        "tumbling_top": _top_to_json(tumbling_top[: monitor.top_k]),
        "sliding_top": _top_to_json(monitor.current_top),
        "sliding_total_estimate": round(window_estimates.total(), 3),
        "enter_threshold": round(monitor.last_enter_threshold, 3),
        "active_spreaders": [_json_user(user) for user in monitor.active_spreaders],
        "exactness": monitor.window.window_exactness(),
    }


def replay_feed(
    monitor: SpreaderMonitor,
    pairs: Iterable[UserItemPair],
    timestamps: Sequence[float] | np.ndarray | None = None,
    batch_size: int = 2048,
    rate: float | None = None,
    snapshot_store: SnapshotStore | None = None,
    snapshot_every: int = 0,
    skip_pairs: int = 0,
) -> Iterator[dict[str, object]]:
    """Replay ``pairs`` through ``monitor``; yield the JSONL feed records.

    The batches are those of :func:`~repro.runtime.handle.batch_slices`:
    a column-backed :class:`~repro.streams.GraphStream` is encoded one
    column slice at a time.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if rate is not None and rate <= 0:
        raise ValueError("rate must be positive (or None for full speed)")
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be non-negative")
    if snapshot_every and snapshot_store is None:
        raise ValueError("snapshot_every requires a snapshot_store")
    batches_done = 0
    alerts_emitted = 0
    windows_emitted = 0
    batches = batch_slices(
        pairs, timestamps, batch_size, skip_pairs, encoded=monitor.window.takes_encoded
    )
    for batch, batch_times in batches:
        closed = monitor.window.ingest(batch, batch_times)
        alerts = monitor.evaluate()
        for epoch in closed:
            windows_emitted += 1
            yield _window_record(monitor, epoch)
        for alert in alerts:
            alerts_emitted += 1
            yield alert.to_json()
        batches_done += 1
        if snapshot_every and batches_done % snapshot_every == 0:
            path = snapshot_store.save(monitor)
            yield {
                "type": "snapshot",
                "path": str(path),
                "pairs_ingested": monitor.window.pairs_ingested,
            }
        if rate is not None:
            time.sleep(len(batch) / rate)

    # Close out: report the live epoch as a final (still-open) window.
    live = monitor.window.live_epoch
    if live.pairs:
        windows_emitted += 1
        yield _window_record(monitor, live)
    if snapshot_store is not None:
        path = snapshot_store.save(monitor)
        yield {
            "type": "snapshot",
            "path": str(path),
            "pairs_ingested": monitor.window.pairs_ingested,
        }
    yield {
        "type": "summary",
        "pairs_ingested": monitor.window.pairs_ingested,
        "epochs_started": monitor.window.epochs_started,
        "windows_emitted": windows_emitted,
        "alerts_emitted": alerts_emitted,
        "active_spreaders": [_json_user(user) for user in monitor.active_spreaders],
        "top": _top_to_json(monitor.current_top),
    }
