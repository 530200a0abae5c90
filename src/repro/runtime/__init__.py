"""Ingest runtime: the background-ingest seam of the served path.

:class:`IngestHandle` drives batches into a sink (typically a
:class:`~repro.monitor.spreader.SpreaderMonitor`) on a daemon thread under
a shared lock, so the query-serving layer (:mod:`repro.service`) can read
consistent state between batches without ever stalling ingest.
:func:`batch_slices` cuts a stream into those batches (one
:meth:`~repro.engine.EncodedBatch.from_int_arrays` per slice of an integer
edge file's columns), and :func:`ingest_handle_for_monitor` wires the two
to a monitor.
"""

from repro.runtime.handle import IngestHandle, batch_slices, ingest_handle_for_monitor

__all__ = [
    "IngestHandle",
    "batch_slices",
    "ingest_handle_for_monitor",
]
