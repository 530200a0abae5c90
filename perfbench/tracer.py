"""In-memory span recorder wrapped around the public functions the server calls.

Only the traced server entry point (``serve_traced.py``) installs it; the
untraced runs execute the unmodified ``repro.cli serve``.  A span is
``(id, parent, name, start, end, thread_name, attrs)``: ``parent`` is the
enclosing span on the same thread (``-1`` at a thread's top level), times
are ``time.perf_counter`` seconds, and ``attrs`` carries the few facts a
layer metric needs (pairs in a batch, bytes in a frame, the request op).
Spans stay in memory and are written out once, when the server exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

_perf = time.perf_counter
_current_thread = threading.current_thread

#: Thread name of the IngestHandle worker (``repro.runtime.handle``).
INGEST_THREAD = "repro-ingest"


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int, float]:
        """Start a span on this thread; returns the token :meth:`close` takes."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        return span_id, parent, _perf()

    def close(self, token: tuple[int, int, float], name: str, attrs=None) -> None:
        end = _perf()
        span_id, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append(
            (span_id, parent, name, start, end, _current_thread().name, attrs)
        )

    def wrap(self, func, name: str, annotate=None):
        """``func`` recorded as span ``name``; ``annotate(args, kwargs, result)``
        returns the span's attrs."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            token = self.open()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                attrs = annotate(args, kwargs, result) if annotate is not None else None
                self.close(token, name, attrs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


class TracedLock:
    """The service lock, recording wait and hold spans around each acquire.

    On the ingest thread a hold is one ``handle.batch`` (sink plus snapshot
    refresh, see ``IngestHandle._run``); elsewhere it is ``lock.hold``.
    """

    def __init__(self, tracer: Tracer, lock) -> None:
        self._tracer = tracer
        self._lock = lock
        self._held = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ingest = _current_thread().name == INGEST_THREAD
        wait = self._tracer.open()
        acquired = self._lock.acquire(blocking, timeout)
        self._tracer.close(wait, "handle.lock_wait" if ingest else "lock.wait")
        if acquired:
            self._held.token = (self._tracer.open(), ingest)
        return acquired

    def release(self) -> None:
        token, ingest = self._held.token
        self._tracer.close(token, "handle.batch" if ingest else "lock.hold")
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *_exc) -> None:
        self.release()


def _patch(tracer: Tracer, owner, attr: str, name: str, annotate=None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, annotate)))
    else:
        setattr(owner, attr, tracer.wrap(raw, name, annotate))


def install(tracer: Tracer) -> None:
    """Wrap the served path's layer boundaries (see README.md, "Layers")."""
    from repro.baselines.cse import CSE
    from repro.baselines.vhll import VirtualHLL
    from repro.core.freebs import FreeBS
    from repro.core.freers import FreeRS
    from repro.engine.encoding import EncodedBatch
    from repro.monitor import merge, view
    from repro.monitor.snapshot import SnapshotStore
    from repro.monitor.spreader import SpreaderMonitor
    from repro.monitor.topk import TopKTracker
    from repro.monitor.window import WindowedEstimator
    from repro.runtime import handle
    from repro.service import frames, server

    _patch(tracer, EncodedBatch, "from_pairs", "engine.encode")
    for estimator in (FreeBS, FreeRS, CSE, VirtualHLL):
        _patch(tracer, estimator, "update_encoded", "sketch.update")
    _patch(
        tracer,
        WindowedEstimator,
        "ingest",
        "window.ingest",
        lambda args, _kw, closed: {"closed": len(closed or ())},
    )
    _patch(
        tracer,
        SpreaderMonitor,
        "observe",
        "spreader.observe",
        lambda args, _kw, _r: {"pairs": len(args[1])},
    )
    _patch(tracer, SpreaderMonitor, "evaluate", "spreader.evaluate_full")
    _patch(tracer, TopKTracker, "apply_updates", "topk.apply_updates")
    _patch(tracer, TopKTracker, "full_refresh", "topk.full_refresh")
    _patch(tracer, view.SlidingMergeCache, "sliding_estimates", "merge.sliding")
    # The merge helpers are called through both modules' globals.
    for module in (merge, view):
        _patch(tracer, module, "merge_into", "merge.merge_into")
        _patch(tracer, module, "refresh_estimates_from_state", "merge.refresh")
        _patch(tracer, module, "merged_copy", "merge.merged_copy")
        _patch(tracer, module, "fresh_estimates", "merge.fresh")
    _patch(tracer, view, "export_read_snapshot", "view.export")

    def save_bytes(_args, _kw, path):
        return {"bytes": path.stat().st_size if path is not None else 0}

    _patch(tracer, SnapshotStore, "save", "snapshot.save", save_bytes)
    _patch(tracer, handle.IngestHandle, "start", "handle.start")

    original_init = server.EstimateService.__init__

    @functools.wraps(original_init)
    def service_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.lock = TracedLock(tracer, self.lock)

    server.EstimateService.__init__ = service_init

    def request_attrs(args, _kw, _response):
        request = args[1]
        return {"op": str(request.get("op")), "id": request.get("id")}

    _patch(tracer, server.EstimateService, "handle", "service.handle", request_attrs)
    _patch(tracer, server.EstimateService, "refresh", "service.refresh")
    _patch(
        tracer,
        frames,
        "encode_frame",
        "frames.encode",
        lambda _a, _kw, payload: {"bytes": len(payload or b"")},
    )
    _patch(tracer, frames, "decode_payload", "frames.decode")
