"""Tests for estimator snapshot serialization."""

from __future__ import annotations

import base64
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core import FreeBS, FreeRS
from repro.core import serialization
from repro.baselines import CSE, ExactCounter, PerUserHLLPP, PerUserLPC, VirtualHLL
from repro.engine import ShardedEstimator
from repro.experiments.config import ExperimentConfig
from repro.registry import REGISTRY, build


def _feed(estimator, pairs):
    for user, item in pairs:
        estimator.update(user, item)
    return estimator


def _pairs(count, seed=0):
    rng = random.Random(seed)
    return [(rng.randint(0, 30), rng.randint(0, 300)) for _ in range(count)]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: FreeBS(1 << 12, seed=3),
        lambda: FreeRS(1 << 9, seed=3),
    ],
    ids=["FreeBS", "FreeRS"],
)
class TestRoundTrip:
    def test_estimates_survive_round_trip(self, factory):
        estimator = _feed(factory(), _pairs(2_000, seed=1))
        restored = serialization.loads(serialization.dumps(estimator))
        assert restored.estimates() == estimator.estimates()

    def test_restored_estimator_continues_identically(self, factory):
        # Process half the stream, snapshot, restore, process the second half
        # on both the original and the restored copy: results must be equal.
        first_half = _pairs(1_500, seed=2)
        second_half = _pairs(1_500, seed=3)
        original = _feed(factory(), first_half)
        restored = serialization.loads(serialization.dumps(original))
        _feed(original, second_half)
        _feed(restored, second_half)
        assert restored.estimates() == original.estimates()

    def test_file_round_trip(self, factory, tmp_path):
        estimator = _feed(factory(), _pairs(500, seed=4))
        path = tmp_path / "snapshot.json"
        serialization.save(estimator, path)
        restored = serialization.load(path)
        assert restored.estimates() == estimator.estimates()
        assert type(restored) is type(estimator)


class TestErrorsAndFormat:
    def test_rejects_unsupported_estimator(self):
        with pytest.raises(TypeError):
            serialization.dumps(ExactCounter())

    def test_rejects_garbage_payload(self):
        with pytest.raises(ValueError):
            serialization.loads('{"format": "something-else"}')

    def test_rejects_unknown_version(self):
        payload = serialization.dumps(FreeBS(1 << 10))
        current = f'"version": {serialization._FORMAT_VERSION}'
        assert current in payload
        tampered = payload.replace(current, '"version": 99')
        with pytest.raises(ValueError):
            serialization.loads(tampered)

    def test_string_and_int_users_round_trip(self):
        estimator = FreeBS(1 << 10, seed=1)
        estimator.update("alice", "x")
        estimator.update(42, "y")
        restored = serialization.loads(serialization.dumps(estimator))
        assert set(restored.estimates()) == {"alice", 42}

    def test_seed_preserved(self):
        estimator = FreeRS(1 << 8, seed=77)
        estimator.update("u", "i")
        restored = serialization.loads(serialization.dumps(estimator))
        assert restored.seed == 77


class TestObjectEnvelopes:
    """``to_obj``/``from_obj`` are the dict-level seam under dumps/loads —
    embedders (monitor snapshots) compose envelopes without a render +
    re-parse round-trip per estimator."""

    def test_to_obj_matches_dumps_and_from_obj_loads_it(self):
        estimator = _feed(FreeRS(1 << 9, seed=3), _pairs(1_000, seed=5))
        envelope = serialization.to_obj(estimator)
        assert envelope == json.loads(serialization.dumps(estimator))
        restored = serialization.from_obj(envelope)
        assert restored.estimates() == estimator.estimates()

    def test_from_obj_rejects_bad_envelopes(self):
        with pytest.raises(ValueError):
            serialization.from_obj({"format": "something-else"})
        envelope = serialization.to_obj(FreeBS(1 << 10))
        with pytest.raises(ValueError):
            serialization.from_obj({**envelope, "version": 99})

    def test_sharded_envelope_embeds_plain_sub_envelopes(self):
        sharded = _feed(
            ShardedEstimator(lambda k: FreeRS(1 << 8, seed=3), shards=3),
            _pairs(1_000, seed=6),
        )
        envelope = serialization.to_obj(sharded)
        for shard in envelope["body"]["sub"]:
            restored_shard = serialization.from_obj(shard)
            assert isinstance(restored_shard, FreeRS)
        assert serialization.from_obj(envelope).estimates() == sharded.estimates()


class TestVersion2Kinds:
    """Round-trips of the kinds added in format version 2."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: CSE(1 << 12, virtual_size=64, seed=3),
            lambda: VirtualHLL(1 << 10, virtual_size=64, seed=3),
            lambda: PerUserLPC(1 << 12, expected_users=30, seed=3),
            lambda: PerUserHLLPP(1 << 13, expected_users=30, seed=3),
        ],
        ids=["CSE", "vHLL", "LPC", "HLL++"],
    )
    def test_baseline_round_trip_and_continue(self, factory):
        first_half = _pairs(1_500, seed=6)
        second_half = _pairs(1_500, seed=7)
        original = _feed(factory(), first_half)
        restored = serialization.loads(serialization.dumps(original))
        assert restored.estimates() == original.estimates()
        _feed(original, second_half)
        _feed(restored, second_half)
        assert restored.estimates() == original.estimates()

    def test_sharded_round_trip_with_multiple_shards(self):
        estimator = ShardedEstimator(
            lambda _k: FreeRS(1 << 8, seed=5), shards=4, seed=5
        )
        _feed(estimator, _pairs(2_000, seed=8))
        restored = serialization.loads(serialization.dumps(estimator))
        assert isinstance(restored, ShardedEstimator)
        assert restored.num_shards == 4
        assert restored.shard_pair_counts == estimator.shard_pair_counts
        assert restored.estimates() == estimator.estimates()
        # Both continue identically through the batch path.
        tail = _pairs(1_000, seed=9)
        estimator.update_batch(tail)
        restored.update_batch(tail)
        assert restored.estimates() == estimator.estimates()

    def test_sharded_of_baselines_round_trips(self):
        estimator = ShardedEstimator(
            lambda _k: CSE(1 << 10, virtual_size=64, seed=2), shards=3, seed=2
        )
        _feed(estimator, _pairs(1_000, seed=10))
        restored = serialization.loads(serialization.dumps(estimator))
        assert restored.estimates() == estimator.estimates()

    def test_hllpp_sparse_and_dense_representations_survive(self):
        estimator = PerUserHLLPP(1 << 14, expected_users=2, seed=1)
        # One light user (stays sparse) and one heavy user (densifies).
        estimator.update("light", 1)
        for item in range(5_000):
            estimator.update("heavy", item)
        sketches = estimator._sketches
        assert sketches["light"].is_sparse and not sketches["heavy"].is_sparse
        restored = serialization.loads(serialization.dumps(estimator))
        assert restored._sketches["light"].is_sparse
        assert not restored._sketches["heavy"].is_sparse
        assert restored.estimates() == estimator.estimates()


GOLDEN_DIR = Path(__file__).parent / "fixtures" / "snapshots_v3"
REGISTRY_TAGS = [spec.tag for spec in REGISTRY.values()]
GOLDEN_KINDS = [*REGISTRY_TAGS, "Sharded-FreeBS-2"]


def _golden_pairs(count, seed):
    rng = random.Random(seed)
    return [(rng.randint(0, 39), rng.randint(0, 400)) for _ in range(count)]


def _golden_reference(kind):
    """Rebuild the estimator a golden envelope was written from.

    Every ``tests/fixtures/snapshots_v3/v3-<kind>.json`` holds the format-v3
    envelope of this estimator: ``memory_bits=1 << 12``, seed 3, 40 users,
    fed ``_golden_pairs(1_200, seed=5)`` pair by pair.
    """
    if kind == "Sharded-FreeBS-2":
        estimator = ShardedEstimator(lambda _k: FreeBS(1 << 12, seed=3), shards=2, seed=3)
    else:
        name = next(name for name, spec in REGISTRY.items() if spec.tag == kind)
        config = ExperimentConfig(memory_bits=1 << 12, seed=3)
        estimator = build(name, config, expected_users=40)
    return _feed(estimator, _golden_pairs(1_200, seed=5))


def _golden(kind):
    return json.loads((GOLDEN_DIR / f"v3-{kind}.json").read_text(encoding="utf-8"))


def _relabel(envelope, version, triples=False):
    """``envelope`` under another version label, sub-envelopes included.

    With ``triples`` the columnar estimates become the triple list that
    v1/v2 envelopes carry (they must be base85, as in a v3 golden).
    """
    envelope = dict(envelope, version=version)
    if envelope["kind"] == "Sharded":
        subs = [_relabel(sub, version, triples) for sub in envelope["body"]["sub"]]
        envelope["body"] = dict(envelope["body"], sub=subs)
    elif triples and isinstance(envelope["estimates"], dict):
        columns = serialization._estimates_from_payload(envelope["estimates"], base64.b85decode)
        envelope["estimates"] = serialization._estimates_to_json(columns)
    return envelope


def _arrays(estimator):
    """Shared bit words / register values, or every user's private sketch."""
    if isinstance(estimator, ShardedEstimator):
        return [_arrays(shard) for shard in estimator.shards]
    if hasattr(estimator, "_sketches"):  # LPC / HLL++: one sketch per user
        return [(user, _arrays(sketch)) for user, sketch in estimator._sketches.items()]
    if getattr(estimator, "_sparse", None) is not None:  # a sparse HLL++ sketch
        return list(estimator._sparse.items())
    if hasattr(estimator, "_bits"):
        return estimator._bits._words.tolist(), estimator._bits.ones
    return estimator._registers.values.tolist()


def _assert_same_state(restored, reference):
    assert list(restored.estimates().items()) == list(reference.estimates().items())
    assert _arrays(restored) == _arrays(reference)


def _assert_loads_identically(envelope, kind):
    """The envelope restores the golden estimator and continues like it."""
    reference = _golden_reference(kind)
    restored = serialization.loads(json.dumps(envelope))
    _assert_same_state(restored, reference)
    batch = _golden_pairs(600, seed=6)
    restored.update_batch(batch)
    reference.update_batch(batch)
    _assert_same_state(restored, reference)


class TestCrossVersionLoads:
    """Old envelopes load to the state they were written from.

    The v3 goldens under ``tests/fixtures/snapshots_v3`` were written by the
    format-v3 (base85) codec; v1 and v2 share that array encoding, so a v3
    golden relabelled v1 or v2 is a real old payload.  A v4 body under an
    older label (or the reverse) must be rejected, never half-loaded.
    """

    @pytest.mark.parametrize("kind", GOLDEN_KINDS)
    def test_v3_golden_loads_identically(self, kind):
        envelope = _golden(kind)
        assert envelope["version"] == 3
        _assert_loads_identically(envelope, kind)

    def test_v1_payloads_load_for_every_registry_tag(self):
        for kind in REGISTRY_TAGS:
            envelope = _relabel(_golden(kind), 1)
            assert envelope["kind"] == kind
            _assert_loads_identically(envelope, kind)

    def test_v2_payloads_load_for_every_registry_tag(self):
        # Version-2 envelopes predate the columnar estimates: a triple list.
        for kind in REGISTRY_TAGS:
            envelope = _relabel(_golden(kind), 2, triples=True)
            assert isinstance(envelope["estimates"], list)
            _assert_loads_identically(envelope, kind)

    def test_v1_sharded_envelope_loads(self):
        _assert_loads_identically(_relabel(_golden("Sharded-FreeBS-2"), 1), "Sharded-FreeBS-2")

    @pytest.mark.parametrize("kind", GOLDEN_KINDS)
    def test_mislabelled_array_encoding_is_rejected(self, kind):
        # A base64 body read as base85 can decode without error, to more
        # bytes than the array holds: the length check must refuse it.
        current = serialization.to_obj(_golden_reference(kind))
        assert current["version"] == 4
        with pytest.raises(ValueError):
            serialization.from_obj(_relabel(current, 3))
        with pytest.raises(ValueError):
            serialization.from_obj(_relabel(_golden(kind), 4))

    @pytest.mark.parametrize("size", [7, 9], ids=["short", "surplus"])
    def test_decoded_array_must_fill_exactly_count_items(self, size):
        payload = base64.b64encode(bytes(size)).decode("ascii")
        decode = serialization._array_decoder(4)
        with pytest.raises(ValueError, match="expected 8"):
            serialization._decode_array(payload, decode, np.uint64, 1)

    def test_v4_envelopes_are_columnar_and_round_trip(self):
        # Pure-int user populations ship as two columns; the restore must
        # return the exact dict, key *types* included (ints, not strs).
        estimator = _feed(FreeBS(1 << 12, seed=3), _pairs(2_000, seed=11))
        envelope = json.loads(serialization.dumps(estimator))
        assert envelope["version"] == 4
        assert envelope["estimates"]["encoding"] == "columnar-i64"
        restored = serialization.from_obj(envelope)
        assert restored.estimates() == estimator.estimates()
        assert all(type(user) is int for user in restored.estimates())

    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "2-shard"])
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_v4_round_trip_is_byte_identical(self, name, shards):
        config = ExperimentConfig(memory_bits=1 << 12, seed=3)
        estimator = _feed(
            build(name, config, expected_users=40, shards=shards), _golden_pairs(1_200, seed=5)
        )
        payload = serialization.dumps(estimator)
        assert serialization.dumps(serialization.loads(payload)) == payload

    def test_v3_mixed_keys_fall_back_to_triples(self):
        estimator = FreeBS(1 << 10, seed=1)
        estimator.update("alice", "x")
        estimator.update(42, "y")
        estimator.update(b"raw", "z")
        estimator.update(("t", 7), "w")
        envelope = json.loads(serialization.dumps(estimator))
        assert isinstance(envelope["estimates"], list)  # not columnar
        restored = serialization.from_obj(envelope)
        assert set(restored.estimates()) == {"alice", 42, b"raw", ("t", 7)}

    def test_corrupted_header_rejections(self):
        estimator = _feed(FreeBS(1 << 10, seed=3), _pairs(400, seed=7))
        envelope = json.loads(serialization.dumps(estimator))

        wrong_format = dict(envelope, format="not-a-freesketch-snapshot")
        with pytest.raises(ValueError, match="not a freesketch snapshot"):
            serialization.loads(json.dumps(wrong_format))

        future_version = dict(envelope, version=99)
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            serialization.loads(json.dumps(future_version))

        unknown_kind = dict(envelope, kind="MysterySketch")
        with pytest.raises(ValueError, match="unknown snapshot kind"):
            serialization.loads(json.dumps(unknown_kind))

    def test_truncated_payload_rejected(self):
        payload = serialization.dumps(_feed(FreeRS(1 << 9, seed=3), _pairs(400, seed=8)))

        with pytest.raises(json.JSONDecodeError):
            serialization.loads(payload[: len(payload) // 2])
