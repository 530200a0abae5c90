"""Tests for the async estimate-serving subsystem.

The load-bearing contracts (mirroring the CI ``serve-smoke`` job):

* every client answer (``spread`` / ``batch_spread`` / ``topk`` /
  ``sliding``) is identical to the direct monitor call on the state the
  response's ``(version, pairs_ingested)`` stamp names — before and after
  epoch rotations, and while ingest is running concurrently;
* a monitor recovered from a snapshot serves identical answers;
* protocol errors (unknown op, bad params, malformed JSON) answer with
  error envelopes and keep the connection usable.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time

import pytest

from repro.monitor import MonitorSpec, SnapshotStore
from repro.runtime import IngestHandle, batch_slices, ingest_handle_for_monitor
from repro.service import OPS, EstimateServer, EstimateService, ServiceClient, ServiceError
from repro.streams import zipf_bipartite_stream

_USERS = 80
_BATCH = 500


@pytest.fixture(scope="module")
def stream():
    return zipf_bipartite_stream(
        n_users=_USERS, n_pairs=6_000, max_cardinality=500, duplicate_factor=0.4, seed=9
    )


def _spec(method="FreeRS"):
    return MonitorSpec(
        method=method,
        memory_bits=1 << 14,
        expected_users=_USERS,
        epoch_pairs=1_500,
        window_epochs=4,
        delta=5e-3,
    )


class _ServerThread:
    """Run an EstimateServer on its own event loop thread for sync clients."""

    def __init__(self, service: EstimateService):
        self.service = service
        self.port = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10.0), "server did not come up"

    def _run(self):
        async def main():
            server = EstimateServer(self.service, port=0)
            await server.start()
            self.port = server.port
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await server.close()

        asyncio.run(main())

    def close(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)


@pytest.fixture()
def served(stream):
    monitor = _spec().build()
    monitor.observe(stream[:4_000])
    service = EstimateService(monitor)
    server = _ServerThread(service)
    try:
        yield monitor, service, server
    finally:
        server.close()


class TestQueryIdentity:
    def test_hot_ops_match_direct_monitor_calls(self, served, stream):
        monitor, _service, server = served
        estimates = monitor.last_window_estimates()
        some_users = list(estimates)[:8]
        with ServiceClient(port=server.port) as client:
            assert client.batch_spread(some_users) == [
                estimates[user] for user in some_users
            ]
            assert client.spread(some_users[0]) == estimates[some_users[0]]
            assert client.topk(monitor.top_k) == [
                (user, value) for user, value in monitor.current_top
            ]
            assert client.spread(10**9) == 0.0

    def test_sliding_matches_window_estimates(self, served):
        monitor, _service, server = served
        with ServiceClient(port=server.port) as client:
            for k in (1, 2, None):
                expected = monitor.window.window_estimates(k)
                assert client.sliding(k) == expected

    def test_sliding_stamp_names_the_merged_state_even_when_snapshot_lags(
        self, served, stream
    ):
        """With refresh_every > 1 the published snapshot lags the window;
        the sliding response must still be stamped with the state it merged,
        not the stale snapshot (the offline-reproducibility contract)."""
        monitor, service, server = served
        monitor.observe(stream[4_000:5_000])  # published snapshot NOT refreshed
        with ServiceClient(port=server.port) as client:
            estimates = client.sliding(2)
            assert client.last_pairs_ingested == 5_000
            assert estimates == monitor.window.window_estimates(2)
            # The hot path still answers from the published (older) snapshot.
            client.topk(3)
            assert client.last_pairs_ingested == 4_000

    def test_answers_identical_before_and_after_rotation(self, served, stream):
        monitor, service, server = served
        with ServiceClient(port=server.port) as client:
            before = client.topk(5)
            assert before == monitor.current_top[:5]
            # Rotate: ingesting the rest crosses several 1500-pair epochs.
            epochs_before = monitor.window.epochs_started
            monitor.observe(stream[4_000:])
            assert monitor.window.epochs_started > epochs_before
            with service.lock:
                service.refresh()
            after = client.topk(5)
            assert after == monitor.current_top[:5]
            assert client.last_pairs_ingested == len(stream)

    def test_stats_reports_state_and_op_table(self, served, stream):
        monitor, _service, server = served
        with ServiceClient(port=server.port) as client:
            client.topk(3)
            stats = client.stats()
        assert stats["pairs_ingested"] == 4_000
        assert stats["method"] == "FreeRS"
        assert stats["method_spec"]["tag"] == "FreeRS"
        assert {op["op"] for op in stats["ops"]} == set(OPS)
        assert stats["queries_served"] >= 1
        # Array-typed fields are declared in the op table so binary-capable
        # clients can discover the lift plan without out-of-band knowledge.
        by_name = {op["op"]: op for op in stats["ops"]}
        assert by_name["batch_spread"]["binary_arrays"] == {
            "request": {"users": "ids"},
            "result": {"estimates": "floats"},
        }
        assert by_name["topk"]["binary_arrays"]["result"] == {"top": "pairs"}


class TestSnapshotRecovery:
    def test_recovered_monitor_serves_identical_answers(self, served, stream, tmp_path):
        monitor, _service, server = served
        store = SnapshotStore(tmp_path / "snaps")
        store.save(monitor)
        with ServiceClient(port=server.port) as client:
            users = [user for user, _ in client.topk(10)]
            original = client.batch_spread(users)
            original_top = client.topk(10)

        recovered = store.restore()
        recovered_service = EstimateService(recovered)
        recovered_server = _ServerThread(recovered_service)
        try:
            with ServiceClient(port=recovered_server.port) as client:
                assert client.batch_spread(users) == original
                assert client.topk(10) == original_top
        finally:
            recovered_server.close()


class TestConcurrentIngest:
    def test_queries_never_block_ingest_and_stay_consistent(self, stream):
        """Readers during live ingest see exact batch-boundary states."""
        monitor = _spec().build()
        service = EstimateService(monitor)
        handle = ingest_handle_for_monitor(
            monitor,
            stream,
            batch_size=_BATCH,
            on_batch=lambda _n: service.refresh(),
            lock=service.lock,
        )
        service.attach_ingest(handle)
        server = _ServerThread(service)
        probe_users = sorted({user for user, _item in stream[:200]})[:6]
        observed = {}
        try:
            with ServiceClient(port=server.port) as client:
                handle.start()
                while True:
                    values = client.batch_spread(probe_users)
                    observed[client.last_pairs_ingested] = values
                    stats = client.stats()
                    if stats.get("ingest", {}).get("finished"):
                        break
                handle.join(10.0)
                values = client.batch_spread(probe_users)
                observed[client.last_pairs_ingested] = values
        finally:
            server.close()
        assert len(observed) >= 2, "expected answers at several ingest offsets"
        # Replay each observed offset offline: answers must match exactly.
        for offset, values in observed.items():
            assert offset % _BATCH == 0 or offset == len(stream)
            replica = _spec().build()
            for chunk, times in batch_slices(stream[:offset], batch_size=_BATCH):
                replica.observe(chunk, times)
            estimates = replica.last_window_estimates()
            assert values == [float(estimates.get(user, 0.0)) for user in probe_users], (
                f"served answer diverged from direct monitor state at pair {offset}"
            )

    def test_sliding_during_ingest_matches_replay(self, stream):
        """``sliding`` shares the monitor's prefix cache with the ingest
        thread's per-batch evaluations (both under the service lock).  Readers
        on more threads than cores, with a short switch interval, must each
        get exactly the merge of the state their stamp names, keys in order."""
        monitor = _spec("CSE").build()
        service = EstimateService(monitor)
        handle = ingest_handle_for_monitor(
            monitor,
            stream,
            batch_size=_BATCH,
            rate=50_000,  # spread ingest over a few hundred ms of reads
            on_batch=lambda _n: service.refresh(),
            lock=service.lock,
        )
        server = _ServerThread(service)
        answers = []  # (pairs_ingested, k_epochs, estimates as (user, value) list)
        errors = []
        k_values = (1, 2, 3, None)
        connected = threading.Barrier(len(k_values) + 1, timeout=30.0)

        def reader(k_epochs):
            try:
                with ServiceClient(port=server.port) as client:
                    connected.wait()
                    while True:
                        done = handle.finished
                        estimates = client.sliding(k_epochs)
                        answers.append(
                            (client.last_pairs_ingested, k_epochs, list(estimates.items()))
                        )
                        if done:
                            return
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        readers = [threading.Thread(target=reader, args=(k,)) for k in k_values]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            connected.wait()
            handle.start()
            assert handle.join(60.0)
            for thread in readers:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
            server.close()
        assert not errors
        assert not any(thread.is_alive() for thread in readers)
        handle.raise_if_failed()
        offsets = {offset for offset, _k, _estimates in answers}
        assert len(offsets) >= 3, "expected answers at several ingest offsets"
        replica = _spec("CSE").build()
        expected = {}
        position = 0
        for chunk, times in [([], None), *batch_slices(stream, batch_size=_BATCH)]:
            replica.observe(chunk, times)
            position += len(chunk)
            if position in offsets:
                for k in k_values:
                    expected[position, k] = list(replica.window.window_estimates(k).items())
        for offset, k, estimates in answers:
            assert estimates == expected[offset, k], (
                f"sliding({k}) at pair {offset} diverged from the replayed state"
            )

    def test_ingest_error_is_captured_and_surfaced(self):
        monitor = _spec().build()
        service = EstimateService(monitor)

        def poisoned_batches():
            yield [(1, 1), (1, 2)], None
            raise RuntimeError("poisoned batch")

        handle = IngestHandle(
            poisoned_batches(),
            lambda pairs, times: monitor.observe(pairs, times),
            lock=service.lock,
            on_batch=lambda _n: service.refresh(),
        )
        service.attach_ingest(handle)
        handle.start()
        for _ in range(200):
            if handle.finished:
                break
            time.sleep(0.02)
        assert handle.finished
        with pytest.raises(RuntimeError, match="background ingest failed"):
            handle.raise_if_failed()
        stats = service.handle({"op": "stats"})["result"]
        assert "poisoned batch" in stats["ingest"]["error"]


class TestProtocolErrors:
    def test_error_envelopes_keep_the_connection_usable(self, served):
        _monitor, _service, server = served
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("no_such_op")
            assert excinfo.value.code == "unknown_op"
            with pytest.raises(ServiceError) as excinfo:
                client.request("spread")  # missing 'user'
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServiceError) as excinfo:
                client.request("topk", k=-3)
            assert excinfo.value.code == "bad_request"
            # Connection still answers after three errors.
            assert isinstance(client.stats()["pairs_ingested"], int)

    def test_malformed_json_line_answers_bad_request(self, served):
        _monitor, _service, server = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as raw:
            raw.sendall(b"this is not json\n")
            line = raw.makefile("rb").readline()
        response = json.loads(line)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_responses_longer_than_one_chunk_are_reassembled(
        self, served, monkeypatch
    ):
        """The client must never truncate a long response line: a partial
        read followed by json.loads would desync the whole connection."""
        import repro.service.client as client_module

        monitor, _service, server = served
        monkeypatch.setattr(client_module, "_READ_CHUNK_BYTES", 64)
        with ServiceClient(port=server.port) as client:
            # A sliding reply enumerates ~80 users (a few KB): dozens of
            # 64-byte chunks that must reassemble to the exact answer.
            assert client.sliding() == monitor.window.window_estimates()
            # And the connection is still in sync afterwards.
            assert client.topk(3) == monitor.current_top[:3]

    def test_response_ceiling_is_enforced(self, served, monkeypatch):
        import repro.service.client as client_module

        _monitor, _service, server = served
        monkeypatch.setattr(client_module, "MAX_RESPONSE_BYTES", 256)
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ConnectionError, match="exceeds"):
                client.sliding()  # enumerates every user: far over 256 B

    def test_blank_lines_are_ignored(self, served):
        _monitor, _service, server = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as raw:
            raw.sendall(b"\n\n" + json.dumps({"op": "stats", "id": 1}).encode() + b"\n")
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is True and response["id"] == 1


class TestResponseSizeCap:
    """The line cap is symmetric: the server must never emit a response line
    over MAX_LINE_BYTES (a conforming client may reject it) — it answers
    with a clean ``response_too_large`` error instead."""

    def test_boundary(self, served, monkeypatch):
        import repro.service.protocol as protocol

        _monitor, _service, server = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as raw:
            reader = raw.makefile("rb")

            def exchange(request_id):
                raw.sendall(
                    json.dumps({"id": request_id, "op": "topk", "k": 5}).encode() + b"\n"
                )
                return reader.readline()

            line = exchange(1)
            assert json.loads(line)["ok"] is True
            cap = len(line)
            # Exactly at the cap: the response is emitted unchanged.
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", cap)
            at_cap = exchange(2)
            assert len(at_cap) == cap and json.loads(at_cap)["ok"] is True
            # One byte under: replaced by the error envelope, id echoed.
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", cap - 1)
            over = json.loads(exchange(3))
            assert over["ok"] is False
            assert over["error"]["code"] == "response_too_large"
            assert over["id"] == 3
            # The connection stays usable once the cap allows answers again.
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", cap)
            assert json.loads(exchange(4))["ok"] is True

    def test_client_surfaces_the_error_code(self, served, monkeypatch):
        import repro.service.protocol as protocol

        _monitor, _service, server = served
        with ServiceClient(port=server.port) as client:
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
            with pytest.raises(ServiceError) as excinfo:
                client.sliding()  # enumerates every user: far over 64 bytes
            assert excinfo.value.code == "response_too_large"
            monkeypatch.undo()
            assert client.stats()["pairs_ingested"] == 4_000  # still in sync


class TestWireKeyRoundTrip:
    """Keys read from any response feed back into any query op: the wire
    coercion (``wire_user``) is symmetric across topk / sliding / spread."""

    @pytest.fixture()
    def odd_key_server(self):
        monitor = _spec().build()
        batch = (
            [(3, item) for item in range(40)]
            + [("7", item) for item in range(30)]
            + [(("src", 9), item) for item in range(20)]
        )
        monitor.observe(batch)
        service = EstimateService(monitor)
        server = _ServerThread(service)
        try:
            yield monitor, server
        finally:
            server.close()

    def test_topk_keys_resolve_back(self, odd_key_server):
        _monitor, server = odd_key_server
        with ServiceClient(port=server.port) as client:
            top = client.topk(10)
            assert {user for user, _ in top} == {3, "7", "('src', 9)"}
            for user, value in top:
                assert client.spread(user) == value > 0.0

    def test_sliding_keys_resolve_back(self, odd_key_server):
        monitor, server = odd_key_server
        with ServiceClient(port=server.port) as client:
            sliding = client.sliding()
            assert set(sliding) == {3, "7", "('src', 9)"}
            for user, value in sliding.items():
                assert client.spread(user) == value > 0.0
            assert client.batch_spread(list(sliding)) == list(sliding.values())

    def test_int_str_duality_is_symmetric(self, odd_key_server):
        monitor, server = odd_key_server
        with ServiceClient(port=server.port) as client:
            assert client.spread("3") == client.spread(3) > 0.0
            assert client.spread(7) == client.spread("7") > 0.0
            assert client.batch_spread([3, "3", 7, "7"]) == [
                client.spread(3),
                client.spread(3),
                client.spread("7"),
                client.spread("7"),
            ]


class TestServeMonitorLifecycle:
    """End-to-end orchestration: :func:`serve_monitor` must announce the
    serving and ingest-finished records, answer queries while ingesting,
    and — on cancellation — finish the executor-side shutdown (ingest join
    + final checkpoint) even though the blocking lock work was moved off
    the event loop."""

    def _run(self, stream, tmp_path, snapshot_every=4):
        from repro.service import serve_monitor

        monitor = _spec().build()
        store = SnapshotStore(tmp_path, keep=2)
        records = []
        queried = {}

        async def main():
            ready = asyncio.Event()
            task = asyncio.create_task(
                serve_monitor(
                    monitor,
                    pairs=stream,
                    port=0,
                    batch_size=512,
                    refresh_every=1,
                    snapshot_store=store,
                    snapshot_every=snapshot_every,
                    announce=records.append,
                    ready=ready,
                )
            )
            await asyncio.wait_for(ready.wait(), 10.0)
            deadline = time.monotonic() + 30.0
            while not any(
                r["type"] in ("ingest-finished", "ingest-failed") for r in records
            ):
                assert time.monotonic() < deadline, "ingest never finished"
                await asyncio.sleep(0.05)
            # The server stays queryable after the stream drains; the sync
            # client runs on the executor so the serving loop keeps turning.
            port = records[0]["port"]

            def query():
                with ServiceClient(port=port) as client:
                    queried["topk"] = client.topk(5)
                    queried["stats"] = client.stats()

            await asyncio.get_running_loop().run_in_executor(None, query)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)

        asyncio.run(main())
        return monitor, store, records, queried

    def test_announces_serving_then_ingest_finished(self, stream, tmp_path):
        monitor, store, records, queried = self._run(stream, tmp_path)
        assert records[0]["type"] == "serving"
        assert records[0]["ingesting"] is True
        finished = [r for r in records if r["type"] == "ingest-finished"]
        assert len(finished) == 1
        assert finished[0]["pairs_ingested"] == len(stream)
        assert queried["topk"] and queried["stats"]["pairs_ingested"] == len(stream)

    def test_final_checkpoint_covers_the_whole_stream(self, stream, tmp_path):
        monitor, store, _records, _queried = self._run(stream, tmp_path)
        latest = store.latest()
        assert latest is not None
        restored = store.restore(latest)
        assert restored.window.pairs_ingested == len(stream)
        assert restored.current_top == monitor.current_top
