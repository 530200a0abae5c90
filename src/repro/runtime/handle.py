"""Non-blocking ingest: drive batches into a sink on a background thread.

The query-serving layer (:mod:`repro.service`) needs ingest that keeps
running while thousands of readers are answered.  :class:`IngestHandle`
owns that seam: a daemon thread feeds ``(pairs, timestamps)`` batches to a
sink callable, mutating shared state only while holding :attr:`lock`, so a
reader that takes the same lock between batches always sees a consistent
monitor.  Errors raised by the sink (or the batch source) are captured and
re-raised on :meth:`join` / :meth:`raise_if_failed` instead of dying
silently on the thread; :meth:`stop` is cooperative and takes effect at the
next batch boundary.

Throttling happens *outside* the lock: a rate-limited replay must not hold
the monitor lock while sleeping, or every sliding-window query would stall
behind the pacing sleep rather than behind real work.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

import threading
import time

import numpy as np

from repro import obs
from repro.engine.encoding import EncodedBatch
from repro.streams.stream import GraphStream

UserItemPair = tuple[object, object]

_log = obs.get_logger("runtime.ingest")

#: One ingest batch: the pairs (or their encoding) plus their optional
#: arrival timestamps.
IngestBatch = tuple[
    Sequence[UserItemPair] | EncodedBatch, Sequence[float] | np.ndarray | None
]


def batch_slices(
    pairs: Iterable[UserItemPair],
    timestamps: Sequence[float] | np.ndarray | None = None,
    batch_size: int = 2048,
    start: int = 0,
    encoded: bool = True,
) -> Iterator[IngestBatch]:
    """Slice a stream into ``(pairs, timestamps)`` ingest batches from pair ``start`` on.

    The batches are made one at a time.  A column-backed
    :class:`~repro.streams.GraphStream` (an integer edge file) yields each
    batch as one :meth:`EncodedBatch.from_int_arrays` of its column slices,
    so none of its pairs becomes a Python object; encoding reads only the
    columns, so it may run outside the ingest lock.  For estimators that
    take only pairs (``encoded=False``, from
    :attr:`~repro.monitor.WindowedEstimator.takes_encoded`) the column
    slices are yielded as pairs instead.  Any other stream yields slices of
    its pairs.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    columns = pairs.to_int_arrays() if isinstance(pairs, GraphStream) and pairs.columnar else None
    if columns is None and not isinstance(pairs, Sequence):
        pairs = list(pairs)
    total = len(pairs)
    if timestamps is not None and len(timestamps) != total:
        raise ValueError("timestamps must have one entry per pair")

    def batches() -> Iterator[IngestBatch]:
        for begin in range(start, total, batch_size):
            end = begin + batch_size
            times = None if timestamps is None else timestamps[begin:end]
            if columns is None:
                yield pairs[begin:end], times
                continue
            users, items = columns[0][begin:end], columns[1][begin:end]
            if encoded:
                yield EncodedBatch.from_int_arrays(users, items), times
            else:
                yield list(zip(users.tolist(), items.tolist())), times

    return batches()


class IngestHandle:
    """Feed batches to a sink on a daemon thread, under a shared lock.

    Parameters
    ----------
    batches:
        Iterable of ``(pairs, timestamps)`` batches (see
        :func:`batch_slices`); the pairs may be an
        :class:`~repro.engine.EncodedBatch`.  The next batch is taken from
        the iterable before the lock is.
    sink:
        Called with each batch's ``(pairs, timestamps)`` while :attr:`lock`
        is held — typically ``SpreaderMonitor.observe``.
    lock:
        The mutual-exclusion lock between ingest and state readers; a fresh
        ``threading.Lock`` when omitted.  Exposed so readers can hold it for
        consistent multi-step reads.
    on_batch:
        Optional callback fired after each batch **still under the lock** —
        the service layer refreshes its read snapshot here, guaranteeing the
        exported state is a batch-boundary state.
    rate:
        Optional throttle in pairs per second, slept off outside the lock.
    """

    def __init__(
        self,
        batches: Iterable[IngestBatch],
        sink: Callable[
            [Sequence[UserItemPair] | EncodedBatch, Sequence[float] | np.ndarray | None],
            object,
        ],
        lock: threading.Lock | None = None,
        on_batch: Callable[[int], None] | None = None,
        rate: float | None = None,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None for full speed)")
        self._batches = iter(batches)
        self._sink = sink
        self.lock = lock if lock is not None else threading.Lock()
        self._on_batch = on_batch
        self._rate = rate
        self._stop = threading.Event()
        self._finished = threading.Event()
        self._error: BaseException | None = None
        # Ingest progress lives in the metrics registry (always-on: the
        # service's refresh cadence and ``describe()`` depend on it, so
        # disabling telemetry must not change it).  The registry is
        # process-global; per-handle counts are deltas from the values
        # captured here.
        self._batches_counter = obs.counter("ingest.background.batches", always=True)
        self._pairs_counter = obs.counter("ingest.background.pairs", always=True)
        self._batches_base = self._batches_counter.value
        self._pairs_base = self._pairs_counter.value
        self._batch_seconds = obs.histogram("ingest.background.batch_seconds")
        self._started_at: float | None = None
        self._final_elapsed: float | None = None
        self._thread = threading.Thread(target=self._run, name="repro-ingest", daemon=True)
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> IngestHandle:
        """Start the ingest thread (idempotent); return self for chaining."""
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    def _run(self) -> None:
        active = obs.gauge("ingest.background.active")
        active.add(1)
        self._started_at = time.perf_counter()
        try:
            for pairs, timestamps in self._batches:
                if self._stop.is_set():
                    break
                with self.lock, obs.timed(self._batch_seconds):
                    self._sink(pairs, timestamps)
                    self._batches_counter.add()
                    self._pairs_counter.add(len(pairs))
                    if self._on_batch is not None:
                        self._on_batch(self.batches_done)
                if self._rate is not None:
                    time.sleep(len(pairs) / self._rate)
        except BaseException as error:  # surfaced via join()/raise_if_failed()
            self._error = error
            _log.error(
                "background_ingest_failed",
                error=repr(error),
                batches_done=self.batches_done,
                pairs_done=self.pairs_done,
            )
        finally:
            self._final_elapsed = time.perf_counter() - self._started_at
            active.add(-1)
            self._finished.set()

    def stop(self) -> None:
        """Request a cooperative stop at the next batch boundary."""
        self._stop.set()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the ingest thread; re-raise its error; True when finished."""
        if self._started:
            self._thread.join(timeout)
        self.raise_if_failed()
        return self.finished

    def raise_if_failed(self) -> None:
        """Re-raise the ingest thread's captured exception, if any."""
        if self._error is not None:
            raise RuntimeError("background ingest failed") from self._error

    # -- introspection ---------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the ingest thread is alive and not finished."""
        return self._started and not self._finished.is_set()

    @property
    def finished(self) -> bool:
        """True once the batch source is exhausted, stopped, or failed."""
        return self._finished.is_set()

    @property
    def error(self) -> BaseException | None:
        """The captured ingest error (None while healthy)."""
        return self._error

    @property
    def batches_done(self) -> int:
        """Batches fully ingested so far (by this handle)."""
        return int(self._batches_counter.value - self._batches_base)

    @property
    def pairs_done(self) -> int:
        """Pairs fully ingested so far (by this handle)."""
        return int(self._pairs_counter.value - self._pairs_base)

    def _elapsed_seconds(self) -> float | None:
        """Ingest wall-clock: live while running, frozen once finished.

        Frozen so two ``stats`` responses from a finished server are
        bit-identical — the transport-identity contract extends into the
        embedded ingest description.
        """
        if self._started_at is None:
            return None
        if self._final_elapsed is not None:
            return self._final_elapsed
        return time.perf_counter() - self._started_at

    def describe(self) -> dict:
        """JSON-ready ingest state (embedded in the service's ``stats`` op)."""
        elapsed = self._elapsed_seconds()
        pairs_done = self.pairs_done
        return {
            "running": self.running,
            "finished": self.finished,
            "batches_done": self.batches_done,
            "pairs_done": pairs_done,
            "elapsed_seconds": elapsed,
            "pairs_per_second": (
                pairs_done / elapsed if elapsed and elapsed > 0 else None
            ),
            "error": None if self._error is None else repr(self._error),
        }


def ingest_handle_for_monitor(
    monitor,
    pairs: Iterable[UserItemPair],
    timestamps: Sequence[float] | np.ndarray | None = None,
    batch_size: int = 2048,
    rate: float | None = None,
    on_batch: Callable[[int], None] | None = None,
    lock: threading.Lock | None = None,
    start: int = 0,
) -> IngestHandle:
    """Build (without starting) a handle replaying a stream into a monitor.

    Ingest begins at pair ``start`` (a restored monitor's resume offset);
    the batches are made lazily by :func:`batch_slices`, in the form the
    monitor's window takes.
    """
    batches = batch_slices(
        pairs, timestamps, batch_size, start, encoded=monitor.window.takes_encoded
    )

    def sink(batch, batch_times):
        monitor.observe(batch, batch_times)

    return IngestHandle(batches, sink, lock=lock, on_batch=on_batch, rate=rate)
