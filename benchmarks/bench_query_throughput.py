"""Query-side throughput: scalar per-user loops vs the vectorised query engine.

Three claims this PR's query engine makes, measured and recorded:

* ``estimate_many`` (and ``estimate_fresh_many`` for the shared-sketch
  methods) beats the per-user ``estimate()`` loop for every method, with
  bit-identical results;
* ``ReadSnapshot.batch_spread`` over 10k integer users is >= 5x the
  per-user ``spread`` loop (one vectorised gather from the frozen score
  columns, :meth:`~repro.state.FrozenScores.gather_exact`);
* the monitor's incremental top-k refresh over a 100k-user window is >= 5x
  the full rebuild-and-sort it replaced.

Persists ``benchmarks/results/BENCH_query_throughput.json`` (scalar vs
batch ops/sec per method) so CI tracks the query-path trajectory from this
PR on.  The two acceptance bars are asserted with generous margins below
the locally observed ratios, because CI machines vary.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.baselines import CSE, PerUserHLLPP, PerUserLPC, VirtualHLL
from repro.core import FreeBS, FreeRS
from repro.monitor import MonitorSpec
from repro.streams import zipf_bipartite_stream

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "BENCH_query_throughput.json"

_RNG = np.random.default_rng(17)

_FACTORIES = {
    "FreeBS": lambda: FreeBS(1 << 18, seed=2),
    "FreeRS": lambda: FreeRS(1 << 15, seed=2),
    "CSE": lambda: CSE(1 << 18, virtual_size=128, seed=2),
    "vHLL": lambda: VirtualHLL(1 << 15, virtual_size=128, seed=2),
    "LPC": lambda: PerUserLPC(1 << 20, expected_users=2_000, seed=2),
    "HLL++": lambda: PerUserHLLPP(1 << 20, expected_users=2_000, seed=2),
}


def _ops_per_second(fn, queries: int, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return queries / best if best > 0 else float("inf")


def _method_rows():
    pairs = zipf_bipartite_stream(
        n_users=2_000, n_pairs=60_000, max_cardinality=600, duplicate_factor=0.3, seed=5
    )
    users = sorted({user for user, _ in pairs})
    rows = {}
    for name, factory in _FACTORIES.items():
        estimator = factory()
        estimator.process(pairs)
        scalar = [estimator.estimate(user) for user in users]
        batch = estimator.estimate_many(users)
        assert batch == scalar, f"{name}: estimate_many diverged from estimate()"
        row = {
            "users": len(users),
            "scalar_ops_per_s": _ops_per_second(
                lambda: [estimator.estimate(user) for user in users], len(users)
            ),
            "batch_ops_per_s": _ops_per_second(
                lambda: estimator.estimate_many(users), len(users)
            ),
        }
        if hasattr(estimator, "estimate_fresh_many"):
            fresh_scalar = [estimator.estimate_fresh(user) for user in users]
            assert estimator.estimate_fresh_many(users) == fresh_scalar, (
                f"{name}: estimate_fresh_many diverged"
            )
            row["fresh_scalar_ops_per_s"] = _ops_per_second(
                lambda: [estimator.estimate_fresh(user) for user in users], len(users)
            )
            row["fresh_batch_ops_per_s"] = _ops_per_second(
                lambda: estimator.estimate_fresh_many(users), len(users)
            )
        rows[name] = row
    return rows


def _batch_spread_row():
    monitor = MonitorSpec(
        method="FreeRS",
        memory_bits=1 << 18,
        expected_users=20_000,
        epoch_pairs=1 << 16,
        window_epochs=4,
        delta=5e-3,
    ).build()
    pairs = list(
        zip(
            _RNG.integers(0, 20_000, size=80_000).tolist(),
            _RNG.integers(0, 50_000, size=80_000).tolist(),
        )
    )
    for start in range(0, len(pairs), 8_192):
        monitor.observe(pairs[start : start + 8_192])
    snapshot = monitor.read_snapshot()
    # Parity including misses and str/int duality...
    mixed = _RNG.integers(0, 25_000, size=10_000).tolist() + ["7", "no-such-user"]
    assert snapshot.batch_spread(mixed) == [snapshot.spread(user) for user in mixed]
    # ...throughput on the hot-path workload: querying tracked users.
    tracked = [user for user in snapshot.estimates if isinstance(user, int)]
    queries = [
        tracked[index] for index in _RNG.integers(0, len(tracked), size=10_000).tolist()
    ]
    return {
        "users_tracked": len(snapshot.estimates),
        "queries": len(queries),
        "scalar_ops_per_s": _ops_per_second(
            lambda: [snapshot.spread(user) for user in queries], len(queries)
        ),
        "batch_ops_per_s": _ops_per_second(
            lambda: snapshot.batch_spread(queries), len(queries)
        ),
    }


def _topk_refresh_row():
    def build(n_users=100_000):
        monitor = MonitorSpec(
            method="FreeBS",
            memory_bits=1 << 21,
            expected_users=n_users,
            epoch_pairs=1 << 22,  # no rotation: isolate the refresh cost
            window_epochs=4,
            delta=5e-3,
            top_k=10,
        ).build()
        users = np.arange(n_users)
        items = _RNG.integers(0, 1 << 30, size=n_users)
        pairs = list(zip(users.tolist(), items.tolist()))
        for start in range(0, len(pairs), 16_384):
            monitor.observe(pairs[start : start + 16_384])
        return monitor

    monitor = build()
    probe = [
        (int(user), int(item))
        for user, item in zip(
            _RNG.integers(0, 100_000, size=512), _RNG.integers(1 << 30, 1 << 31, size=512)
        )
    ]

    # Scalar baseline: the pre-engine per-batch refresh — rebuild the full
    # sliding estimate dict and sort it for the top-k.
    def full_resort():
        estimates = monitor.window.window_estimates()
        return sorted(estimates.items(), key=lambda item: item[1], reverse=True)[:10]

    start = time.perf_counter()
    rounds = 5
    for _ in range(rounds):
        baseline_top = full_resort()
    scalar_seconds = (time.perf_counter() - start) / rounds

    # Incremental path: observe a 512-pair batch (dirty-set re-scoring).
    start = time.perf_counter()
    for _ in range(rounds):
        monitor.observe(probe)
    incremental_seconds = (time.perf_counter() - start) / rounds
    assert monitor.incremental_evaluations >= rounds
    assert monitor.current_top == full_resort(), "incremental top-k diverged"
    assert baseline_top  # populated above

    return {
        "users_tracked": len(monitor.last_window_estimates()),
        "batch_pairs": len(probe),
        "scalar_refresh_s": scalar_seconds,
        "incremental_refresh_s": incremental_seconds,
        "scalar_refresh_per_s": 1.0 / scalar_seconds,
        "incremental_refresh_per_s": 1.0 / incremental_seconds,
    }


def test_query_throughput_json(benchmark):
    """Measure the sweep once, persist the JSON artifact, gate the 5x bars."""

    def sweep():
        return {
            "methods": _method_rows(),
            "batch_spread_10k": _batch_spread_row(),
            "topk_refresh_100k": _topk_refresh_row(),
        }

    payload = benchmark.pedantic(sweep, rounds=1, iterations=1)
    spread = payload["batch_spread_10k"]
    spread["speedup"] = spread["batch_ops_per_s"] / spread["scalar_ops_per_s"]
    refresh = payload["topk_refresh_100k"]
    refresh["speedup"] = refresh["scalar_refresh_s"] / refresh["incremental_refresh_s"]
    for row in payload["methods"].values():
        row["speedup"] = row["batch_ops_per_s"] / row["scalar_ops_per_s"]
        if "fresh_batch_ops_per_s" in row:
            row["fresh_speedup"] = (
                row["fresh_batch_ops_per_s"] / row["fresh_scalar_ops_per_s"]
            )

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULTS_PATH}")
    for name, row in payload["methods"].items():
        fresh = (
            f", fresh {row['fresh_speedup']:.1f}x" if "fresh_speedup" in row else ""
        )
        print(f"  {name:7s} estimate_many {row['speedup']:.1f}x{fresh}")
    print(f"  batch_spread(10k)   {spread['speedup']:.1f}x")
    print(f"  topk refresh (100k) {refresh['speedup']:.1f}x")

    # Acceptance bars (ISSUE 5): >= 5x with bit-identical results, asserted
    # above inside the sweep.
    assert spread["speedup"] >= 5.0, f"batch_spread only {spread['speedup']:.1f}x"
    assert refresh["speedup"] >= 5.0, f"topk refresh only {refresh['speedup']:.1f}x"
