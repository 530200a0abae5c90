"""Tests for the multiprocess parallel-ingest runtime.

The load-bearing property: for a fixed shard count, the merged estimator of
a multi-worker run is **bit-identical** to the single-process sharded run —
same shard partitioning, same seeds, exact float equality on every user's
estimate.  Multiprocess spin-up costs a few hundred milliseconds per run, so
the suite keeps the streams small and the worker sweeps short.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.registry import METHOD_ORDER, build
from repro.runtime import IngestReport, owned_shards, parallel_ingest
from repro.streams.generators import zipf_bipartite_stream
from repro.streams.stream import GraphStream

_CONFIG = ExperimentConfig(memory_bits=1 << 17, seed=7)
_USERS = 250


@pytest.fixture(scope="module")
def stream():
    pairs = list(zipf_bipartite_stream(n_users=_USERS, n_pairs=12_000, seed=3))
    return GraphStream(pairs)


class TestSingleProcessPath:
    def test_workers_one_matches_plain_sharded_process(self, stream):
        reference = build("vHLL", _CONFIG, _USERS, shards=2)
        reference.process(stream)
        report = parallel_ingest(
            stream, method="vHLL", config=_CONFIG, expected_users=_USERS,
            workers=1, shards=2,
        )
        assert report.estimates() == reference.estimates()

    def test_report_accounting(self, stream):
        report = parallel_ingest(
            stream, method="FreeRS", config=_CONFIG, expected_users=_USERS, workers=1
        )
        assert isinstance(report, IngestReport)
        assert report.pairs == len(stream)
        assert report.workers == 1 and report.shards == 1
        assert report.pairs_per_second > 0


class TestMultiprocessBitIdentity:
    @pytest.mark.parametrize("method", ["FreeRS", "CSE"])
    def test_two_workers_match_single_process(self, method, stream):
        single = parallel_ingest(
            stream, method=method, config=_CONFIG, expected_users=_USERS,
            workers=1, shards=2,
        )
        parallel = parallel_ingest(
            stream, method=method, config=_CONFIG, expected_users=_USERS,
            workers=2, shards=2,
        )
        assert parallel.estimates() == single.estimates()
        assert parallel.pairs == single.pairs == len(stream)
        assert parallel.transport == "shm"

    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_shm_transport_bit_identical_for_every_method(self, method, stream):
        """The acceptance bar: shm handoff == single-process sharded run,
        exact float equality, for all six compared methods."""
        single = parallel_ingest(
            stream, method=method, config=_CONFIG, expected_users=_USERS,
            workers=1, shards=2,
        )
        parallel = parallel_ingest(
            stream, method=method, config=_CONFIG, expected_users=_USERS,
            workers=2, shards=2,
        )
        assert parallel.estimates() == single.estimates()

    def test_tiny_slots_fall_back_to_inline_delivery(self, monkeypatch, stream):
        """Slots too small for the chunks exercise the inline-pickle
        fallback without changing the result (FIFO order is preserved)."""
        import repro.runtime.parallel as parallel_module
        import repro.runtime.shm as shm_module

        single = parallel_ingest(
            stream, method="FreeRS", config=_CONFIG, expected_users=_USERS,
            workers=1, shards=2, chunk_size=2048,
        )
        monkeypatch.setattr(
            parallel_module, "slot_size_for", lambda pairs: shm_module.slot_size_for(64)
        )
        parallel = parallel_ingest(
            stream, method="FreeRS", config=_CONFIG, expected_users=_USERS,
            workers=2, shards=2, chunk_size=2048,
        )
        assert parallel.estimates() == single.estimates()

    def test_more_shards_than_workers(self, stream):
        single = parallel_ingest(
            stream, method="vHLL", config=_CONFIG, expected_users=_USERS,
            workers=1, shards=5,
        )
        parallel = parallel_ingest(
            stream, method="vHLL", config=_CONFIG, expected_users=_USERS,
            workers=2, shards=5,
        )
        assert parallel.estimates() == single.estimates()

    def test_generic_pair_streams_use_the_subset_path(self):
        pairs = [(f"u{u}", f"i{i}") for u, i in
                 zipf_bipartite_stream(n_users=80, n_pairs=3000, seed=9)]
        stream = GraphStream(pairs)
        single = parallel_ingest(
            stream, method="FreeBS", config=_CONFIG, expected_users=80,
            workers=1, shards=2,
        )
        parallel = parallel_ingest(
            stream, method="FreeBS", config=_CONFIG, expected_users=80,
            workers=2, shards=2,
        )
        assert parallel.estimates() == single.estimates()

    def test_chunking_does_not_change_the_result(self, stream):
        coarse = parallel_ingest(
            stream, method="FreeRS", config=_CONFIG, expected_users=_USERS,
            workers=2, shards=2, chunk_size=4096,
        )
        fine = parallel_ingest(
            stream, method="FreeRS", config=_CONFIG, expected_users=_USERS,
            workers=2, shards=2, chunk_size=1000,
        )
        assert coarse.estimates() == fine.estimates()


class TestValidation:
    def test_rejects_nonpositive_workers(self, stream):
        with pytest.raises(ValueError, match="workers must be positive"):
            parallel_ingest(stream, workers=0)

    def test_rejects_fewer_shards_than_workers(self, stream):
        with pytest.raises(ValueError, match="at least the worker count"):
            parallel_ingest(stream, workers=4, shards=2)

    def test_rejects_nonpositive_chunk_size(self, stream):
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            parallel_ingest(stream, workers=1, chunk_size=0)

    def test_owned_shards_round_robin(self):
        assert owned_shards(0, 2, 5) == [0, 2, 4]
        assert owned_shards(1, 2, 5) == [1, 3]
        covered = owned_shards(0, 3, 3) + owned_shards(1, 3, 3) + owned_shards(2, 3, 3)
        assert sorted(covered) == [0, 1, 2]


class TestWorkerFailure:
    """A dying worker (or a poisoned stream) must abort the run, not hang it.

    The coordinator checks worker liveness every chunk and every time a
    full ring blocks, drains the rings, and re-raises the worker error as
    WorkerIngestError with the worker-side traceback attached.
    """

    def test_poisoned_stream_raises_within_the_run(self):
        import time

        class PoisonedStream:
            def __iter__(self):
                for index in range(30_000):
                    yield (index % 40, index)
                raise RuntimeError("poisoned pair")

        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="poisoned pair"):
            parallel_ingest(
                PoisonedStream(), method="vHLL", config=_CONFIG,
                expected_users=_USERS, workers=2, chunk_size=512,
            )
        assert time.perf_counter() - start < 30.0

    def test_worker_exception_raises_worker_ingest_error(self, monkeypatch):
        import multiprocessing
        import time

        import repro.runtime.parallel as parallel_module
        from repro.runtime import WorkerIngestError

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker-failure injection relies on fork inheriting the patch")

        monkeypatch.setattr(parallel_module, "shm_worker", _exploding_worker)
        pairs = [(index % 40, index) for index in range(60_000)]
        start = time.perf_counter()
        with pytest.raises(WorkerIngestError) as excinfo:
            parallel_ingest(
                GraphStream(pairs), method="vHLL", config=_CONFIG,
                expected_users=_USERS, workers=2, chunk_size=512,
            )
        # Raised mid-run (not after an end-of-stream timeout), names the
        # worker, and carries the worker-side traceback.
        assert time.perf_counter() - start < 30.0
        assert excinfo.value.worker in (0, 1)
        assert "worker exploded" in str(excinfo.value)
        assert "_exploding_worker" in excinfo.value.remote_traceback

    def test_instantly_dead_worker_detected_before_result_collection(self, monkeypatch):
        import multiprocessing

        import repro.runtime.parallel as parallel_module
        from repro.runtime import WorkerIngestError

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker-failure injection relies on fork inheriting the patch")

        monkeypatch.setattr(parallel_module, "shm_worker", _instantly_dead_worker)
        pairs = [(index % 40, index) for index in range(20_000)]
        with pytest.raises(WorkerIngestError):
            parallel_ingest(
                GraphStream(pairs), method="FreeRS", config=_CONFIG,
                expected_users=_USERS, workers=2, chunk_size=256,
            )


def _exploding_worker(
    method, config, expected_users, shards, shm_name, slot_size,
    free_queue, ready_queue, result_queue,
):
    # Mimics the real shm worker's error reporting (there is no Future to
    # ship the exception, so it travels through the result queue).
    import sys
    import traceback

    ready_queue.get()
    try:
        raise ValueError("worker exploded")
    except ValueError as error:
        result_queue.put(("error", traceback.format_exc(), repr(error)))
        sys.exit(1)


def _instantly_dead_worker(
    method, config, expected_users, shards, shm_name, slot_size,
    free_queue, ready_queue, result_queue,
):
    # Dies without posting anything: the coordinator must detect the dead
    # process (exit code, empty result queue) instead of hanging.
    raise SystemExit(3)
