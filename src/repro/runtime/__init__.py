"""Parallel ingest runtime: multiprocess scale-out over sharded estimators.

:func:`parallel_ingest` partitions users across a pool of shard workers
(each replaying the engine's vectorised batch path over its slice of the
stream) and merges the per-worker sketches into one estimator whose
estimates are bit-identical to a single-process sharded run.  Chunks reach
the workers over per-worker shared-memory slot rings
(:mod:`repro.runtime.shm`: one memcpy in, zero-copy views out, pickling for
what a slot cannot carry).  A worker crash aborts the run promptly with
:class:`WorkerIngestError` (worker id + remote traceback) instead of
blocking the coordinator on the bounded buffers.  Exposed through
``repro.cli run --workers N``, the ``parallel_ingest`` experiment and
``benchmarks/bench_parallel_ingest.py``.

:class:`IngestHandle` is the non-blocking counterpart for live serving: it
drives batches into a sink (typically a
:class:`~repro.monitor.spreader.SpreaderMonitor`) on a daemon thread under
a shared lock, so the query-serving layer (:mod:`repro.service`) can read
consistent state between batches without ever stalling ingest.
"""

from repro.runtime.handle import IngestHandle, batch_slices, ingest_handle_for_monitor
from repro.runtime.parallel import (
    IngestReport,
    WorkerIngestError,
    owned_shards,
    parallel_ingest,
    worker_for_shards,
)

__all__ = [
    "IngestHandle",
    "IngestReport",
    "WorkerIngestError",
    "batch_slices",
    "ingest_handle_for_monitor",
    "owned_shards",
    "parallel_ingest",
    "worker_for_shards",
]
