"""The asyncio query server: live estimates over NDJSON TCP.

Two layers:

* :class:`EstimateService` — transport-free request handling.  The hot ops
  (``spread`` / ``batch_spread`` / ``topk`` / ``stats``) answer from the
  monitor's immutable :class:`~repro.monitor.view.ReadSnapshot`, refreshed
  at batch boundaries by the ingest thread — readers never take a lock, so
  any number of concurrent queries cannot stall ingest.  The cold
  ``sliding`` op performs sketch merges, so it briefly holds the ingest
  lock and reuses the closed-epoch prefixes the monitor's own evaluation
  keeps in its :class:`~repro.monitor.view.SlidingMergeCache`
  (invalidated on epoch rotation).
* :class:`EstimateServer` — the asyncio TCP front end.  One task per
  connection, requests answered in order per connection; lock-taking ops
  run on the default executor so a long merge never blocks the event loop.

Ingest runs beside the server on a
:class:`~repro.runtime.handle.IngestHandle` daemon thread (the runtime's
non-blocking ingest seam), feeding the monitor batch by batch and
refreshing the service's snapshot every ``refresh_every`` batches — every
response is therefore a *consistent batch-boundary state*, stamped with its
version and ingest offset.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import asyncio
import threading

from repro import obs
from repro.monitor.spreader import SpreaderMonitor
from repro.monitor.view import ReadSnapshot, wire_user
from repro.service import frames, protocol
from repro.service.ops import OPS, OpSpec
from repro.service.protocol import ProtocolError

#: Default TCP port (freesketch "FS" on a phone keypad, more or less).
DEFAULT_PORT = 7373

#: Transports a server negotiates by default (NDJSON stays the opener).
DEFAULT_TRANSPORTS = (frames.TRANSPORT_NDJSON, frames.TRANSPORT_BINARY)

_log = obs.get_logger("service")

# Per-(labels) instrument caches: the registry's get-or-create is already a
# dict hit, but these skip the label sort on every request.
_REQUEST_COUNTERS: dict[tuple[str, str, bool], obs.Counter] = {}
_OP_SECONDS: dict[str, obs.Histogram] = {}
_BYTES_COUNTERS: dict[str, obs.Counter] = {}
_ERROR_COUNTERS: dict[str, obs.Counter] = {}


def _count_request(op: str, transport: str, ok: bool) -> None:
    key = (op, transport, ok)
    counter = _REQUEST_COUNTERS.get(key)
    if counter is None:
        counter = obs.counter(
            "service.requests",
            op=op,
            transport=transport,
            status="ok" if ok else "error",
        )
        _REQUEST_COUNTERS[key] = counter
    counter.add()


def _op_seconds(op: str) -> obs.Histogram:
    histogram = _OP_SECONDS.get(op)
    if histogram is None:
        histogram = obs.histogram("service.request_seconds", op=op)
        _OP_SECONDS[op] = histogram
    return histogram


def _count_response_bytes(transport: str, size: int) -> None:
    counter = _BYTES_COUNTERS.get(transport)
    if counter is None:
        counter = obs.counter("service.response_bytes", transport=transport)
        _BYTES_COUNTERS[transport] = counter
    counter.add(size)


def _count_error(code: str) -> None:
    counter = _ERROR_COUNTERS.get(code)
    if counter is None:
        counter = obs.counter("service.errors", code=code)
        _ERROR_COUNTERS[code] = counter
    counter.add()


def _estimates_payload(estimates: Mapping[object, float]) -> list:
    return [[wire_user(user), float(value)] for user, value in estimates.items()]


class EstimateService:
    """Request handling over a live monitor (transport-free, thread-safe)."""

    def __init__(
        self,
        monitor: SpreaderMonitor,
        lock: threading.Lock | None = None,
        ingest_handle=None,
    ) -> None:
        self._monitor = monitor
        #: Mutual exclusion between ingest and lock-taking readers; shared
        #: with the IngestHandle driving this monitor.
        self.lock = lock if lock is not None else threading.Lock()
        self._ingest_handle = ingest_handle
        # Queries served lives in the metrics registry (always-on: ``stats``
        # reports it even with telemetry disabled).  The registry is
        # process-global, so per-instance counts are deltas from the value
        # captured here.
        self._queries = obs.counter("service.queries", always=True)
        self._queries_base = self._queries.value
        with self.lock:
            self._snapshot = monitor.read_snapshot()

    # -- state ----------------------------------------------------------------

    @property
    def snapshot(self) -> ReadSnapshot:
        """The read snapshot answering the hot ops right now."""
        return self._snapshot

    @property
    def queries_served(self) -> int:
        """Requests answered since the service started."""
        return int(self._queries.value - self._queries_base)

    def attach_ingest(self, handle) -> None:
        """Attach the ingest handle once it exists (surfaced via ``stats``)."""
        self._ingest_handle = handle

    def refresh(self) -> ReadSnapshot:
        """Re-export the read snapshot; caller must hold :attr:`lock`.

        Designed as the :class:`~repro.runtime.handle.IngestHandle`'s
        ``on_batch`` callback, which fires under the lock — the exported
        state is always a batch-boundary state.
        """
        self._snapshot = self._monitor.read_snapshot()  # repro-lint: disable=RL001(caller holds the lock: on_batch fires under it by the IngestHandle contract)
        return self._snapshot

    # -- request handling ------------------------------------------------------

    def handle(self, request: dict[str, object]) -> dict[str, object]:
        """Answer one decoded request; always returns a response envelope."""
        op_name = request.get("op")
        spec = OPS.get(op_name) if isinstance(op_name, str) else None
        # Unknown ops share one "unknown" latency series so a misbehaving
        # client cannot mint unbounded label values.
        with obs.timed(_op_seconds(spec.name if spec is not None else "unknown")):
            response = self._dispatch(request, spec)
        if response.get("ok"):
            self._queries.add()
        else:
            _count_error(response["error"]["code"])
        return response

    def _dispatch(
        self, request: dict[str, object], spec: OpSpec | None
    ) -> dict[str, object]:
        request_id = request.get("id")
        if spec is None:
            op_name = request.get("op")
            return protocol.error_response(
                request_id,
                protocol.UNKNOWN_OP,
                f"unknown op {op_name!r}; supported: {', '.join(OPS)}",
            )
        try:
            params = spec.extract_params(request)
            handler = getattr(self, f"_op_{spec.name}")
            snapshot, result = handler(params)
        except ProtocolError as error:
            return protocol.error_response(request_id, error.code, str(error))
        except Exception as error:  # pragma: no cover - defensive backstop
            return protocol.error_response(
                request_id, protocol.INTERNAL, f"{type(error).__name__}: {error}"
            )
        return protocol.ok_response(
            request_id, snapshot.version, snapshot.pairs_ingested, result
        )

    # -- op implementations (return (answering snapshot, result dict)) --------

    def _op_spread(self, params):
        snapshot = self._snapshot
        user = params["user"]
        return snapshot, {"user": user, "estimate": snapshot.spread(user)}

    def _op_batch_spread(self, params):
        snapshot = self._snapshot
        users = params["users"]
        return snapshot, {"estimates": snapshot.batch_spread(users)}

    def _op_topk(self, params):
        snapshot = self._snapshot
        top = snapshot.topk(params["k"])
        return snapshot, {"top": [[wire_user(user), value] for user, value in top]}

    def _op_sliding(self, params):
        k_epochs = params["k_epochs"]
        with self.lock:
            # Stamp with a snapshot exported under the same lock as the
            # merge: with refresh_every > 1 the *published* snapshot may lag
            # the window state by several batches, and a stale stamp would
            # break the contract that (version, pairs_ingested) names the
            # exact state behind the answer.  The local export is not
            # published, so the hot ops keep their refresh cadence.
            snapshot = (
                self._snapshot
                if self._snapshot.version == self._monitor.version
                else self._monitor.read_snapshot()
            )
            estimates = self._monitor.sliding_estimates(k_epochs)
        retained = len(snapshot.epoch_summaries)
        k = retained if k_epochs is None else min(k_epochs, retained)
        return snapshot, {
            "k_epochs": k,
            "exactness": snapshot.exactness,
            "estimates": _estimates_payload(estimates),
        }

    def _op_metrics(self, params):
        snapshot = self._snapshot
        return snapshot, {
            "enabled": obs.REGISTRY.enabled,
            "metrics": obs.metrics_snapshot(),
        }

    def _op_stats(self, params):
        snapshot = self._snapshot
        stats = snapshot.stats()
        stats["queries_served"] = self.queries_served
        stats["ops"] = [spec.describe() for spec in OPS.values()]
        if snapshot.method is not None:
            from repro.registry import REGISTRY

            stats["method_spec"] = REGISTRY[snapshot.method].describe()
        if self._ingest_handle is not None:
            stats["ingest"] = self._ingest_handle.describe()
        return snapshot, stats


class _NdjsonCodec:
    """Per-connection NDJSON transport: one line per message."""

    name = frames.TRANSPORT_NDJSON

    async def read_request(self, reader: asyncio.StreamReader) -> dict | None:
        """One decoded request; None at EOF.  Raises :class:`ProtocolError`."""
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Line exceeded the stream limit: mid-line resync is not
                # possible, so the error is fatal for the connection.
                raise ProtocolError(
                    protocol.BAD_REQUEST,
                    f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
                    fatal=True,
                ) from None
            if not line:
                return None
            if not line.strip():
                continue
            return protocol.decode_request(line)

    def encode_response(self, response: dict, spec: OpSpec | None) -> bytes:
        payload = protocol.encode(response)
        if len(payload) > protocol.MAX_LINE_BYTES:
            # The line cap is symmetric: a conforming client may reject any
            # longer line, so never emit one — answer with a clean error the
            # client can react to instead.
            payload = protocol.encode(
                protocol.error_response(
                    response.get("id"),
                    protocol.RESPONSE_TOO_LARGE,
                    f"response line would exceed {protocol.MAX_LINE_BYTES} "
                    "bytes; narrow the query (smaller k, fewer users, or "
                    "batch_spread in chunks)",
                )
            )
        return payload


class _BinaryCodec:
    """Per-connection binary transport: length-prefixed frames."""

    name = frames.TRANSPORT_BINARY

    async def read_request(self, reader: asyncio.StreamReader) -> dict | None:
        try:
            header = await reader.readexactly(frames.FRAME_HEADER_BYTES)
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise ProtocolError(
                protocol.BAD_REQUEST, "connection closed mid frame header", fatal=True
            ) from None
        # Bad magic / version / over-cap length: recoverable — the reply
        # names the defect and the reader realigns at the next 8 bytes (the
        # declared payload of an over-cap frame is deliberately NOT read).
        length = frames.parse_frame_header(header)
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(
                protocol.BAD_REQUEST, "connection closed mid frame payload", fatal=True
            ) from None
        return frames.decode_payload(payload)

    def encode_response(self, response: dict, spec: OpSpec | None) -> bytes:
        fields: tuple[frames.ArrayField, ...] = ()
        if spec is not None:
            fields = tuple(
                (("result", name), kind) for name, kind in spec.result_arrays
            )
        payload = frames.encode_frame(response, fields)
        if len(payload) > frames.MAX_FRAME_BYTES + frames.FRAME_HEADER_BYTES:
            payload = frames.encode_frame(
                protocol.error_response(
                    response.get("id"),
                    protocol.RESPONSE_TOO_LARGE,
                    f"response frame would exceed {frames.MAX_FRAME_BYTES} "
                    "bytes; narrow the query (smaller k, fewer users, or "
                    "batch_spread in chunks)",
                )
            )
        return payload


class EstimateServer:
    """Asyncio TCP front end for an :class:`EstimateService`.

    Every connection opens in NDJSON.  When ``transports`` includes
    ``"binary"`` (the default), a client may switch the connection to
    length-prefixed binary frames with a ``hello`` first line; pass
    ``transports=("ndjson",)`` to answer ``hello`` but never choose binary,
    or ``transports=None`` to disable negotiation entirely (``hello`` then
    falls through to the dispatcher as an unknown op, which is exactly how
    servers predating negotiation behave — the client fallback path).
    """

    def __init__(
        self,
        service: EstimateService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        transports: Sequence[str] | None = DEFAULT_TRANSPORTS,
    ) -> None:
        self.service = service
        self.host = host
        self.transports = None if transports is None else tuple(transports)
        if self.transports is not None:
            unknown = set(self.transports) - set(DEFAULT_TRANSPORTS)
            if unknown:
                raise ValueError(f"unknown transports {sorted(unknown)}")
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self.connections_served = 0

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> EstimateServer:
        """Bind and start accepting connections; returns self."""
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self._requested_port,
            limit=protocol.MAX_LINE_BYTES,
        )
        return self

    async def close(self) -> None:
        """Stop accepting connections and close the listening sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    def _negotiate(self, request: dict) -> tuple[dict, str]:
        """Answer a ``hello``: pick a transport both sides speak."""
        offered = request.get("transports")
        if not isinstance(offered, list):
            offered = []
        chosen = frames.TRANSPORT_NDJSON
        if frames.TRANSPORT_BINARY in offered and frames.TRANSPORT_BINARY in (
            self.transports or ()
        ):
            chosen = frames.TRANSPORT_BINARY
        response = {
            "id": request.get("id"),
            "ok": True,
            "result": {
                "transport": chosen,
                "transports": list(self.transports or ()),
                "max_line_bytes": protocol.MAX_LINE_BYTES,
                "max_frame_bytes": frames.MAX_FRAME_BYTES,
            },
        }
        return response, chosen

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        obs.counter("service.connections").add()
        active = obs.gauge("service.connections.active")
        active.add(1)
        loop = asyncio.get_running_loop()
        codec = _NdjsonCodec()
        try:
            while True:
                try:
                    request = await codec.read_request(reader)
                except ProtocolError as error:
                    payload = codec.encode_response(
                        protocol.error_response(None, error.code, str(error)), None
                    )
                    _count_request("unknown", codec.name, False)
                    _count_response_bytes(codec.name, len(payload))
                    writer.write(payload)
                    if error.fatal:
                        break
                    try:
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        break
                    continue
                except ConnectionResetError:
                    break
                if request is None:
                    break
                op = request.get("op")
                if self.transports is not None and op == frames.HELLO_OP:
                    # Connection-level negotiation: answered in the current
                    # codec, then both sides switch for everything after.
                    response, chosen = self._negotiate(request)
                    payload = codec.encode_response(response, None)
                    _count_request(frames.HELLO_OP, codec.name, True)
                    _count_response_bytes(codec.name, len(payload))
                    writer.write(payload)
                    try:
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        break
                    if chosen == frames.TRANSPORT_BINARY and codec.name != chosen:
                        codec = _BinaryCodec()
                    continue
                spec = OPS.get(op) if isinstance(op, str) else None
                if spec is not None and spec.needs_lock:
                    # Sketch merges block on the ingest lock: push them
                    # off the event loop so snapshot readers on other
                    # connections keep streaming answers meanwhile.
                    response = await loop.run_in_executor(
                        None, self.service.handle, request
                    )
                else:
                    response = self.service.handle(request)
                payload = codec.encode_response(response, spec)
                _count_request(
                    spec.name if spec is not None else "unknown",
                    codec.name,
                    bool(response.get("ok")),
                )
                _count_response_bytes(codec.name, len(payload))
                writer.write(payload)
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
        finally:
            active.add(-1)
            writer.close()
            try:
                await asyncio.shield(writer.wait_closed())
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
