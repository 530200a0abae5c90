"""Tests for the chunked batch fast path behind ``CardinalityEstimator.process``.

``process`` must be a pure performance optimisation: for every estimator —
batch-capable or not — consuming a stream through it leaves the estimator
in exactly the state the scalar ``update`` loop produces.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from repro.baselines import CSE, ExactCounter, PerUserHLLPP, PerUserLPC, VirtualHLL
from repro.core import FreeBS, FreeRS
from repro.engine import (
    DEFAULT_CHUNK_PAIRS,
    EncodedBatch,
    ShardedEstimator,
    process_stream,
    supports_batch,
)
from repro.streams.io import read_edge_file
from repro.streams.stream import GraphStream


def _random_pairs(count, seed=0):
    rng = random.Random(seed)
    return [(rng.randint(0, 70), rng.randint(0, 500)) for _ in range(count)]


FACTORIES = {
    "FreeBS": lambda: FreeBS(3000, seed=5),
    "FreeRS": lambda: FreeRS(700, seed=5),
    "CSE": lambda: CSE(5000, virtual_size=96, seed=5),
    "vHLL": lambda: VirtualHLL(1900, virtual_size=96, seed=5),
    "LPC": lambda: PerUserLPC(1 << 15, expected_users=70, seed=5),
    "HLL++": lambda: PerUserHLLPP(1 << 15, expected_users=70, seed=5),
}

#: The six methods, a sharded estimator whose shards take encoded batches,
#: and an estimator with only the scalar ``update``.
CASES = {
    **FACTORIES,
    "FreeBS-2-shards": lambda: ShardedEstimator(lambda k: FreeBS(3000, seed=5), shards=2),
    "Exact": ExactCounter,
}
BATCH_CASES = sorted(name for name in CASES if name != "Exact")

#: More pairs than one default chunk, so both chunkings cross a boundary.
PROCESS_PAIRS = _random_pairs(DEFAULT_CHUNK_PAIRS + 500, seed=1)


@functools.cache
def _scalar_estimates(method):
    """``(user, estimate)`` of the scalar loop over :data:`PROCESS_PAIRS`, in key order."""
    estimator = CASES[method]()
    for user, item in PROCESS_PAIRS:
        estimator.update(user, item)
    return list(estimator.estimates().items())


def _column_stream(pairs):
    users, items = zip(*pairs)
    return GraphStream.from_columns(
        np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)
    )


class TestProcessRouting:
    @pytest.mark.parametrize("method", sorted(CASES))
    @pytest.mark.parametrize("form", ["pairs", "columns"])
    @pytest.mark.parametrize("chunk_size", [257, None])
    def test_process_equals_scalar_loop(self, method, form, chunk_size):
        stream = PROCESS_PAIRS if form == "pairs" else _column_stream(PROCESS_PAIRS)
        processed = CASES[method]().process(stream, chunk_size=chunk_size)
        assert list(processed.estimates().items()) == _scalar_estimates(method)

    @pytest.mark.parametrize("method", BATCH_CASES)
    def test_integer_edge_file_never_encodes_pairs(self, method, tmp_path, monkeypatch):
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{user} {item}\n" for user, item in PROCESS_PAIRS))
        stream = read_edge_file(path)
        assert stream.columnar

        def refuse(cls, pairs):
            raise AssertionError("a column stream was encoded as pairs")

        monkeypatch.setattr(EncodedBatch, "from_pairs", classmethod(refuse))
        processed = CASES[method]().process(stream)
        assert list(processed.estimates().items()) == _scalar_estimates(method)

    def test_process_default_chunking_equals_scalar_loop(self):
        # More pairs than one default chunk, to cover the chunk boundary.
        pairs = _random_pairs(DEFAULT_CHUNK_PAIRS + 500, seed=2)
        scalar = FACTORIES["FreeBS"]()
        for user, item in pairs:
            scalar.update(user, item)
        processed = FACTORIES["FreeBS"]().process(pairs)
        assert processed.estimates() == scalar.estimates()

    def test_process_accepts_graph_streams_and_generators(self):
        pairs = _random_pairs(1_000, seed=3)
        stream = GraphStream(pairs, name="t")
        via_stream = FACTORIES["vHLL"]().process(stream)
        via_generator = FACTORIES["vHLL"]().process(pair for pair in pairs)
        assert via_stream.estimates() == via_generator.estimates()

    def test_process_returns_self(self):
        estimator = FACTORIES["FreeRS"]()
        assert estimator.process([]) is estimator

    def test_non_batch_estimators_fall_back_to_scalar(self):
        pairs = _random_pairs(500, seed=4)
        assert not supports_batch(ExactCounter())
        exact = ExactCounter().process(pairs)
        reference = ExactCounter()
        for user, item in pairs:
            reference.update(user, item)
        assert exact.estimates() == reference.estimates()

    def test_all_six_methods_support_batch(self):
        for factory in FACTORIES.values():
            assert supports_batch(factory())

    def test_process_stream_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            process_stream(FACTORIES["FreeBS"](), [], chunk_size=-1)
        with pytest.raises(ValueError):
            process_stream(FACTORIES["FreeBS"](), [], chunk_size=0)
