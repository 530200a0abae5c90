"""The column path equals the tuple path, bit for bit.

An integer edge file reaches the monitor as ``EncodedBatch`` column slices
(``batch_slices`` over a column-backed ``GraphStream``) with ``float64``
timestamp arrays; a tuple stream reaches it as lists of pairs, encoded once
per batch.  For every method, sharded or not, with rotations inside a batch
(``epoch_pairs`` off the batch grid) and with regressed timestamps
(``epoch_span``, clamped or strict), both paths must leave the same
estimates, key order, top-k, alerts (thresholds and feed records included),
regression count and snapshot bytes — and so must a resume from the same
checkpoint.  Served user keys are Python ints on both paths: a numpy scalar
would compare equal to one, but reaches the JSON feed as a string.

The vectorised timestamp clamp is also checked against the per-pair loop it
replaced, on inputs with NaN, signed zeros and infinities.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import ExactCounter
from repro.core import FreeBS
from repro.engine import EncodedBatch
from repro.monitor import (
    MonitorSpec,
    SpreaderMonitor,
    WindowedEstimator,
    monitor_from_json,
    monitor_to_json,
    replay_feed,
)
from repro.runtime import batch_slices, ingest_handle_for_monitor
from repro.service import EstimateService
from repro.state import UserInterner
from repro.state.interner import _VECTOR_MIN
from repro.streams.stream import GraphStream

METHODS = [(method, 1) for method in ("FreeBS", "FreeRS", "CSE", "vHLL", "LPC", "HLL++")]
CASES = [*METHODS, ("FreeBS", 2)]
CASE_IDS = [f"{method}-{shards}" for method, shards in CASES]

_BATCH = 384  # off the epoch grid below: rotations split batches
_PAIRS = 3_000


def _columns(seed: int = 4) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    users = (rng.zipf(1.6, _PAIRS) % 90).astype(np.int64) - 20  # negative ids too
    items = rng.integers(0, 400, _PAIRS).astype(np.int64)
    return users, items


def _storm(seed: int = 4) -> np.ndarray:
    """An arrival clock with regressions inside and across batches."""
    rng = np.random.default_rng(seed + 1)
    times = np.cumsum(rng.exponential(0.35, _PAIRS))
    dips = rng.random(_PAIRS) < 0.15
    times[dips] -= rng.uniform(0.0, 6.0, int(dips.sum()))
    return times


def _spec(method: str, shards: int, **window) -> MonitorSpec:
    window.setdefault("epoch_pairs", 1_000)
    if "epoch_span" in window:
        window["epoch_pairs"] = None
    return MonitorSpec(
        method=method,
        memory_bits=1 << 13,
        virtual_size=32,
        expected_users=90,
        shards=shards,
        window_epochs=3,
        top_k=5,
        delta=2e-2,
        hysteresis=0.3,
        **window,
    )


def _run_tuples(monitor, users, items, times=None, start=0):
    pairs = list(zip(users.tolist(), items.tolist()))
    stamps = None if times is None else times.tolist()
    alerts = []
    for chunk, chunk_times in batch_slices(
        pairs[start:], None if stamps is None else stamps[start:], _BATCH
    ):
        alerts.extend(monitor.observe(chunk, chunk_times))
    return alerts


def _run_columns(monitor, users, items, times=None, start=0):
    stream = GraphStream.from_columns(users, items, timestamps=times)
    alerts = []
    for batch, batch_times in batch_slices(stream, times, _BATCH, start=start):
        assert isinstance(batch, EncodedBatch)
        alerts.extend(monitor.observe(batch, batch_times))
    return alerts


def _typed(items) -> list:
    """``(type(key), key, value)`` per entry: ``np.int64(5) == 5``, but a
    numpy scalar key is served differently."""
    return [(type(key), key, value) for key, value in items]


def _state(monitor: SpreaderMonitor, alerts) -> dict:
    window = monitor.window
    estimates = _typed(monitor.last_window_estimates().items())
    sliding = _typed(monitor.sliding_estimates().items())
    top = _typed(monitor.current_top)
    # Both paths intern int64 columns, so compare against the served type too.
    served = [kind for kind, _, _ in estimates + sliding + top]
    assert set(served + [type(alert.user) for alert in alerts]) <= {int}
    return {
        "snapshot": json.dumps(monitor_to_json(monitor)),
        "estimates": estimates,
        "sliding": sliding,
        "top": top,
        "alerts": alerts,
        "feed": [alert.to_json() for alert in alerts],
        "threshold": monitor.last_enter_threshold,
        "regressions": window.regressions,
        # repr: a NaN clock must compare equal to itself
        "clock": repr(
            [(epoch.index, epoch.start_time, epoch.end_time, epoch.pairs)
             for epoch in window.epochs]
        ),
        "last_timestamp": repr(window.last_timestamp),
        "evaluations": (monitor.incremental_evaluations, monitor.full_evaluations),
    }


@pytest.mark.parametrize(("method", "shards"), CASES, ids=CASE_IDS)
def test_epoch_pairs_off_the_batch_grid(method, shards):
    users, items = _columns()
    by_tuples = _spec(method, shards).build()
    by_columns = _spec(method, shards).build()
    tuple_alerts = _run_tuples(by_tuples, users, items)
    column_alerts = _run_columns(by_columns, users, items)
    assert by_columns.window.epochs_started > 2
    assert _state(by_columns, column_alerts) == _state(by_tuples, tuple_alerts)


@pytest.mark.parametrize(("method", "shards"), CASES, ids=CASE_IDS)
def test_epoch_span_with_a_regression_storm(method, shards):
    users, items = _columns(seed=8)
    times = _storm(seed=8)
    by_tuples = _spec(method, shards, epoch_span=60.0).build()
    by_columns = _spec(method, shards, epoch_span=60.0).build()
    tuple_alerts = _run_tuples(by_tuples, users, items, times)
    column_alerts = _run_columns(by_columns, users, items, times)
    assert by_columns.window.regressions > 100
    assert by_columns.window.epochs_started > 2
    assert _state(by_columns, column_alerts) == _state(by_tuples, tuple_alerts)


@pytest.mark.parametrize(("method", "shards"), CASES, ids=CASE_IDS)
def test_strict_mode_fails_alike(method, shards):
    users, items = _columns(seed=8)
    times = _storm(seed=8)
    by_tuples = _spec(method, shards, epoch_span=60.0, strict_timestamps=True).build()
    by_columns = _spec(method, shards, epoch_span=60.0, strict_timestamps=True).build()
    with pytest.raises(ValueError) as tuple_error:
        _run_tuples(by_tuples, users, items, times)
    with pytest.raises(ValueError) as column_error:
        _run_columns(by_columns, users, items, times)
    assert "non-decreasing" in str(column_error.value)
    assert str(column_error.value) == str(tuple_error.value)
    assert _state(by_columns, []) == _state(by_tuples, [])


@pytest.mark.parametrize(("method", "shards"), CASES, ids=CASE_IDS)
@pytest.mark.parametrize("mode", ["pairs", "span"])
def test_resume_from_one_checkpoint_alike(method, shards, mode):
    users, items = _columns(seed=12)
    times = _storm(seed=12) if mode == "span" else None
    window = {"epoch_span": 60.0} if mode == "span" else {}
    monitor = _spec(method, shards, **window).build()
    offset = 1_234  # mid-epoch, off the batch grid
    head = None if times is None else times[:offset]
    _run_columns(monitor, users[:offset], items[:offset], head)
    checkpoint = json.loads(json.dumps(monitor_to_json(monitor)))
    by_tuples = monitor_from_json(checkpoint)
    by_columns = monitor_from_json(checkpoint)
    tuple_alerts = _run_tuples(by_tuples, users, items, times, start=offset)
    column_alerts = _run_columns(by_columns, users, items, times, start=offset)
    assert by_columns.window.pairs_ingested == _PAIRS
    assert _state(by_columns, column_alerts) == _state(by_tuples, tuple_alerts)


@pytest.mark.parametrize("shards", [1, 2])
def test_interners_take_the_column_between_rotations(shards, monkeypatch):
    """Once primed, a batch that does not rotate reaches every interner of
    an additive monitor (epoch arenas, rescoring probes, score table) as
    the batch's ``int64`` column, never as a list of its users."""
    armed = [False]

    def guarded(original):
        def call(self, keys, *args):
            if armed[0] and isinstance(keys, list) and len(keys) > _VECTOR_MIN:
                raise AssertionError(f"{original.__name__} took a list of {len(keys)} keys")
            return original(self, keys, *args)

        return call

    for name in ("intern_many", "lookup_many"):
        monkeypatch.setattr(UserInterner, name, guarded(getattr(UserInterner, name)))
    users, items = _columns()
    monitor = _spec("FreeBS", shards).build()
    window = monitor.window
    checked = 0
    for batch, _times in batch_slices(GraphStream.from_columns(users, items), None, _BATCH):
        rotates = window.live_epoch.pairs + len(batch) > window.epoch_pairs
        armed[0] = monitor.full_evaluations > 0 and not rotates
        before = monitor.incremental_evaluations
        monitor.observe(batch)
        if armed[0]:
            assert monitor.incremental_evaluations == before + 1
            checked += 1
    assert checked >= 4


def _odd_clock(kind: str) -> np.ndarray:
    times = np.cumsum(np.random.default_rng(9).exponential(0.2, _PAIRS))
    if kind == "nan_then_dip":
        times[[300, 777]] = np.nan
        times[301:320] -= 30.0
    elif kind == "nan_first":
        times[0] = np.nan  # anchors the grid at NaN: the rotation raises
    elif kind == "signed_zeros":
        times[:700] = 0.0
        times[:700:2] = -0.0
    elif kind == "inf":
        times[500] = np.inf  # the next rotation overflows
    return times


@pytest.mark.parametrize("kind", ["nan_then_dip", "nan_first", "signed_zeros", "inf"])
@pytest.mark.parametrize("strict", [False, True])
def test_odd_clocks_alike(kind, strict):
    """NaN restarts the clamp's clock, signed zeros keep their bits, and a
    clock that breaks the epoch grid raises the same error on both paths."""
    users, items = _columns(seed=3)
    times = _odd_clock(kind)
    errors = []
    states = []
    for run in (_run_tuples, _run_columns):
        monitor = _spec("FreeBS", 1, epoch_span=25.0, strict_timestamps=strict).build()
        try:
            run(monitor, users, items, times)
            errors.append(None)
        except (ValueError, OverflowError) as error:
            errors.append((type(error), str(error)))
        states.append(_state(monitor, []))
    assert errors[0] == errors[1]
    assert states[0] == states[1]


class TestScalarOnlyEstimators:
    """An ``EncodedBatch`` carries item folds, not items."""

    def _monitor(self):
        # ExactCounter is not mergeable: a one-epoch window, no rotation.
        window = WindowedEstimator(
            lambda _k: ExactCounter(), epoch_pairs=1 << 20, window_epochs=1
        )
        return SpreaderMonitor(window, threshold=1e9, top_k=3)

    def test_pairs_keep_the_scalar_loop(self):
        monitor = self._monitor()
        pairs = [(user % 7, user % 11) for user in range(120)]
        monitor.observe(iter(pairs))
        assert monitor.window.pairs_ingested == 120
        exact = {}
        for user, item in pairs:
            exact.setdefault(user, set()).add(item)
        assert monitor.window.live_epoch.estimator.estimates() == {
            user: float(len(items)) for user, items in exact.items()
        }

    def test_column_stream_reaches_it_as_pairs(self):
        """The replay feed and the ingest handle slice a column-backed
        stream into pairs for a window that cannot take an EncodedBatch."""
        users, items = _columns()
        stream = GraphStream.from_columns(users, items)
        expected = self._monitor()
        for chunk, _times in batch_slices(list(zip(users.tolist(), items.tolist())), None, 500):
            expected.observe(chunk)
        by_feed = self._monitor()
        assert not by_feed.window.takes_encoded
        # ExactCounter declares no merge, so the window records name no
        # exactness: null on the wire.
        feed = list(replay_feed(by_feed, stream, batch_size=500))
        windows = [record for record in feed if record["type"] == "window"]
        assert windows and all(record["exactness"] is None for record in windows)
        assert '"exactness": null' in json.dumps(windows[-1])
        assert feed[-1]["type"] == "summary"
        assert by_feed.read_snapshot().exactness is None
        stats = EstimateService(by_feed).handle({"op": "stats"})
        assert stats["ok"] and stats["result"]["exactness"] is None
        by_handle = self._monitor()
        handle = ingest_handle_for_monitor(by_handle, stream, batch_size=500).start()
        assert handle.join(timeout=30.0)
        for monitor in (by_feed, by_handle):
            assert monitor.window.pairs_ingested == _PAIRS
            assert monitor.last_window_estimates() == expected.last_window_estimates()
            assert monitor.current_top == expected.current_top

    def test_encoded_batch_is_refused(self):
        monitor = self._monitor()
        batch = EncodedBatch.from_pairs([(1, 2)])
        with pytest.raises(TypeError, match="EncodedBatch"):
            monitor.observe(batch)
        with pytest.raises(TypeError, match="EncodedBatch"):
            monitor.window.ingest(batch)
        assert monitor.window.pairs_ingested == 0


# -- the clamp against the loop it replaced ------------------------------------------


def _loop_clamp(timestamps, previous, strict):
    """The per-pair clamp the vector pass replaced (reference)."""
    timestamps = [float(value) for value in timestamps]
    clamped = 0
    for position, value in enumerate(timestamps):
        if previous is not None and value < previous:
            if strict:
                raise ValueError(
                    "timestamps must be non-decreasing across the stream "
                    f"(got {value} after {previous})"
                )
            timestamps[position] = previous
            clamped += 1
        else:
            previous = value
    return timestamps, clamped


def _bits(values):
    return [struct.pack("<d", value) for value in values]


_CLOCK = st.one_of(
    st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0]),
    st.floats(-5.0, 5.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    batches=st.lists(st.lists(_CLOCK, max_size=12), min_size=1, max_size=4),
    strict=st.booleans(),
)
# Long runs of equal signed zeros: a pair is clamped to the newest of them.
@example(batches=[[0.0, -0.0] * 20 + [-1.0] * 3, [-2.0]], strict=False)
@example(batches=[[-0.0, 0.0] * 20 + [-1.0] * 3, [-2.0]], strict=False)
def test_vector_clamp_equals_the_loop(batches, strict):
    """Batch by batch, same clamped bits, same count, same first error."""
    window = WindowedEstimator(
        lambda _k: FreeBS(64), epoch_pairs=1 << 20, strict_timestamps=strict
    )
    previous = None
    regressions = 0
    for batch in batches:
        try:
            expected, clamped = _loop_clamp(batch, previous, strict)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                window._normalize_timestamps(np.array(batch, dtype=np.float64))
            assert str(raised.value) == str(error)
            assert window.regressions == regressions
            return
        times = np.array(batch, dtype=np.float64)
        window._normalize_timestamps(times)
        assert _bits(times.tolist()) == _bits(expected)
        regressions += clamped
        assert window.regressions == regressions
        if expected:
            previous = expected[-1]
            window._last_timestamp = expected[-1]


def test_event_index_clock_after_a_timestamped_batch():
    """An untimestamped batch after a timestamped one regresses and is
    clamped, pair by pair, exactly as the loop did."""
    window = WindowedEstimator(lambda _k: FreeBS(1 << 10, seed=1), epoch_pairs=1 << 20)
    window.ingest([(1, 1), (1, 2)], [10.0, 12.5])
    window.ingest([(2, k) for k in range(20)])
    expected, clamped = _loop_clamp([float(2 + k) for k in range(20)], 12.5, False)
    assert window.regressions == clamped == 11
    assert window.last_timestamp == expected[-1] == 21.0
    assert window.live_epoch.start_time == 10.0


# -- the served path ------------------------------------------------------------------


def test_served_column_file_with_a_regression_storm(tmp_path, monkeypatch):
    """``serve_monitor`` ingests an integer edge file's columns (never its
    tuples) under a clock with regressions, and ends where a tuple replay
    of the same pairs and times ends."""
    from repro.service import serve_monitor
    from repro.streams.io import read_edge_file

    users, items = _columns(seed=21)
    times = _storm(seed=21)
    path = tmp_path / "storm.tsv"
    path.write_text(
        "".join(f"{u}\t{i}\t{t!r}\n" for u, i, t in zip(users, items, times.tolist())),
        encoding="utf-8",
    )
    stream = read_edge_file(path)
    assert stream.columnar and not stream.has_timestamps  # regressions: not a clock
    expected_monitor = _spec("FreeBS", 1, epoch_span=60.0).build()
    expected_alerts = _run_tuples(expected_monitor, users, items, times)

    def refuse(_self):
        raise AssertionError("the served path built the tuple list")

    monkeypatch.setattr(GraphStream, "pairs", refuse)
    monitor = _spec("FreeBS", 1, epoch_span=60.0).build()
    records = []

    async def main():
        ready = asyncio.Event()
        task = asyncio.create_task(
            serve_monitor(
                monitor,
                pairs=stream,
                timestamps=times,
                port=0,
                batch_size=_BATCH,
                announce=records.append,
                ready=ready,
            )
        )
        await asyncio.wait_for(ready.wait(), 10.0)
        deadline = time.monotonic() + 30.0
        while not any(r["type"] in ("ingest-finished", "ingest-failed") for r in records):
            assert time.monotonic() < deadline, "ingest never finished"
            await asyncio.sleep(0.02)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)

    original = times.copy()
    asyncio.run(main())
    assert _bits(times.tolist()) == _bits(original.tolist())  # clamped on a copy
    assert records[-1]["type"] == "ingest-finished", records
    assert monitor.window.regressions > 100
    assert expected_alerts  # the comparison below covers the alert feed's state
    assert _state(monitor, []) == _state(expected_monitor, [])
