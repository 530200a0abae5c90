"""Wire-transport comparison: NDJSON vs binary frames.

Not a paper artefact: the binary transport exists so the serving layer
stops paying text costs for data that is raw numbers end to end.  The
measurement is ``batch_spread`` over 10k users against a live server, once
per transport on the same monitor state.  NDJSON formats and parses ~200 KB
of JSON text per exchange; binary moves the same data as two raw buffers
(~160 KB) plus a compact header.  The answers must be bit-identical — the
transport may only change the bytes on the wire.

The measurement repeats and keeps the minimum — interpreter warm-up and
page-cache effects dominate single cold runs, and the floor is the number
the transport actually determines.  Persisted to
``benchmarks/results/BENCH_transport.json``.  As with the other runtime
benchmarks the speedup bar (binary >= 3x) binds only with
``FREESKETCH_BENCH_STRICT=1``: shared CI runners are too contended to gate
merges on wall-clock, but the JSON records the trajectory either way.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.monitor import MonitorSpec
from repro.service import EstimateServer, EstimateService, ServiceClient

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "BENCH_transport.json"

_STRICT = os.environ.get("FREESKETCH_BENCH_STRICT") == "1"

_N_QUERY_USERS = 10_000
_SERVICE_REPS = 9


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


def _service_monitor():
    rng = np.random.default_rng(19)
    users = rng.integers(0, _N_QUERY_USERS, size=120_000)
    items = rng.integers(0, 50_000, size=120_000)
    monitor = MonitorSpec(
        method="FreeRS",
        memory_bits=1 << 18,
        expected_users=_N_QUERY_USERS,
        epoch_pairs=40_000,
        window_epochs=4,
        delta=5e-3,
        seed=1,
    ).build()
    monitor.observe(list(zip(users.tolist(), items.tolist())))
    return monitor


def _measure_service() -> dict:
    monitor = _service_monitor()
    server = _ServerThread(EstimateService(monitor))
    query_users = list(range(_N_QUERY_USERS))
    rows, answers = {}, {}
    try:
        for transport in ("ndjson", "binary"):
            with ServiceClient(port=server.port, transport=transport) as client:
                assert client.transport == transport
                client.batch_spread(query_users)  # warm-up exchange
                best = float("inf")
                for _ in range(_SERVICE_REPS):
                    start = time.perf_counter()
                    answers[transport] = client.batch_spread(query_users)
                    best = min(best, time.perf_counter() - start)
            rows[transport] = {
                "best_seconds": best,
                "queries_per_second": 1.0 / best,
                "users_per_second": _N_QUERY_USERS / best,
            }
    finally:
        server.close()
    assert answers["binary"] == answers["ndjson"], (
        "binary batch_spread diverged from the NDJSON answer"
    )
    speedup = rows["ndjson"]["best_seconds"] / rows["binary"]["best_seconds"]
    return {
        "op": "batch_spread",
        "users": _N_QUERY_USERS,
        "reps": _SERVICE_REPS,
        "transports": rows,
        "binary_speedup": speedup,
        "answers_identical": True,
    }


def test_transport_speedups_and_json(benchmark):
    """Measure both transports, assert bit-identity, persist the JSON."""

    def measure():
        return {"service": _measure_service()}

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULTS_PATH}")
    service = results["service"]
    print(
        f"batch_spread({service['users']}): "
        f"ndjson {service['transports']['ndjson']['best_seconds'] * 1e3:7.2f} ms  "
        f"binary {service['transports']['binary']['best_seconds'] * 1e3:7.2f} ms  "
        f"speedup {service['binary_speedup']:.2f}x"
    )

    if not _STRICT:
        print("speedup bar informational (set FREESKETCH_BENCH_STRICT=1 to enforce)")
        return
    assert service["binary_speedup"] >= 3.0, (
        "binary must answer a 10k-user batch_spread at >=3x the NDJSON rate"
    )
