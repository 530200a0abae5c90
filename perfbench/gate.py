"""Correctness gate and accuracy of the served answers.

After ingest drains, the served ``batch_spread`` over every user, ``topk``
and full-window ``sliding`` must be bit-identical to an in-process replay
of the same batches through ``MonitorSpec.build().observe``.  The served
``batch_spread`` answers are also scored against exact sliding-window
distinct counts (``served_rse``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import workloads as wl


@dataclass
class Expected:
    """The replayed monitor's answers to the gate's three queries."""

    batch_spread: list[float]
    topk: list[tuple[object, float]]
    sliding: dict[object, float]


def monitor_spec(workload: wl.Workload, inputs: wl.Inputs):
    """The spec ``repro.cli serve`` builds from the benchmark's flags."""
    from repro.monitor import MonitorSpec

    return MonitorSpec(
        method=workload.method,
        memory_bits=wl.MEMORY_BITS,
        seed=wl.SKETCH_SEED,
        expected_users=max(1, int(inputs.users.size)),
        epoch_pairs=inputs.epoch_pairs,
        window_epochs=wl.WINDOW_EPOCHS,
        top_k=wl.TOP_K,
        delta=5e-3,
    )


def replay(workload: wl.Workload, inputs: wl.Inputs) -> Expected:
    from repro.monitor.view import SlidingMergeCache
    from repro.runtime import batch_slices

    monitor = monitor_spec(workload, inputs).build()
    for batch, _times in batch_slices(inputs.pairs, None, inputs.batch_size):
        monitor.observe(batch)
    snapshot = monitor.read_snapshot()
    return Expected(
        batch_spread=snapshot.batch_spread(inputs.users.tolist()),
        topk=snapshot.topk(wl.TOP_K),
        sliding=dict(SlidingMergeCache().sliding_estimates(monitor.window)),
    )


def mismatches(served: Expected, expected: Expected) -> list[str]:
    """Names of the gate queries whose served answer differs from the replay."""
    bad = []
    if served.batch_spread != expected.batch_spread:
        bad.append("batch_spread")
    if served.topk != expected.topk:
        bad.append("topk")
    if served.sliding != expected.sliding or list(served.sliding) != list(expected.sliding):
        bad.append("sliding")
    return bad


def window_truth(inputs: wl.Inputs) -> dict[int, float]:
    """Exact distinct-pair counts per user over the retained epochs."""
    total = len(inputs.pairs)
    live = (total - 1) // inputs.epoch_pairs
    start = max(0, live - wl.WINDOW_EPOCHS + 1) * inputs.epoch_pairs
    window = np.asarray(inputs.pairs[start:], dtype=np.int64)
    distinct = np.unique(window, axis=0)
    users, counts = np.unique(distinct[:, 0], return_counts=True)
    return dict(zip(users.tolist(), counts.astype(float).tolist()))


def served_rse(inputs: wl.Inputs, served_batch_spread: list[float]) -> float:
    from repro.analysis.metrics import relative_standard_error

    estimates = dict(zip(inputs.users.tolist(), served_batch_spread))
    return relative_standard_error(window_truth(inputs), estimates)
