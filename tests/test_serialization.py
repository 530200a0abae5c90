"""Tests for estimator snapshot serialization."""

from __future__ import annotations

import random

import pytest

from repro.core import FreeBS, FreeRS
from repro.core import serialization
from repro.baselines import CSE, ExactCounter, PerUserHLLPP, PerUserLPC, VirtualHLL
from repro.engine import ShardedEstimator


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
        tampered = payload.replace('"version": 3', '"version": 99')
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
        import json

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


class TestCrossVersionLoads:
    """Older envelopes (v1/v2) must stay loadable by the v3 codec table.

    The loader accepts every version in ``_ACCEPTED_VERSIONS``; a payload
    whose envelope says ``version: 1`` differs from today's only in that
    number, so for every registry tag we rewrite the header and assert the
    load is byte-for-byte equivalent to the current-version load.  A
    corrupted header (wrong format string, unknown kind, truncated body)
    must be rejected with a clear error, never half-loaded.
    """

    def _registry_estimators(self):
        from repro.experiments.config import ExperimentConfig
        from repro.registry import REGISTRY, build

        config = ExperimentConfig(memory_bits=1 << 12, seed=3)
        for name, spec in REGISTRY.items():
            estimator = _feed(build(name, config, expected_users=40), _pairs(1_200, seed=5))
            yield spec.tag, estimator

    def test_v1_payloads_load_for_every_registry_tag(self):
        import json

        seen_tags = []
        for tag, estimator in self._registry_estimators():
            envelope = json.loads(serialization.dumps(estimator))
            assert envelope["kind"] == tag
            envelope["version"] = 1
            restored = serialization.loads(json.dumps(envelope))
            assert restored.estimates() == estimator.estimates(), (
                f"v1 payload of kind {tag} did not restore identically"
            )
            seen_tags.append(tag)
        from repro.registry import REGISTRY

        assert seen_tags == [spec.tag for spec in REGISTRY.values()]

    def test_v2_payloads_load_for_every_registry_tag(self):
        import json

        # Version-2 envelopes (pre-columnar estimates) differ from v3 in the
        # estimates body: a triple list, never the columnar dict.  Rewriting
        # the header *and* downgrading the payload exercises the shape
        # dispatch in _estimates_from_payload.
        for tag, estimator in self._registry_estimators():
            envelope = json.loads(serialization.dumps(estimator))
            envelope["version"] = 2
            if isinstance(envelope["estimates"], dict):
                envelope["estimates"] = serialization._estimates_to_json(
                    estimator.estimates()
                )
            restored = serialization.loads(json.dumps(envelope))
            assert restored.estimates() == estimator.estimates(), (
                f"v2 payload of kind {tag} did not restore identically"
            )

    def test_v3_columnar_estimates_payload_round_trips(self):
        import json

        # v3's headline change: pure-int user populations ship as two base85
        # columns.  Assert the wire form is actually columnar, and that it
        # restores the exact dict (including key *types* — ints, not strs).
        estimator = _feed(FreeBS(1 << 12, seed=3), _pairs(2_000, seed=11))
        envelope = json.loads(serialization.dumps(estimator))
        assert envelope["version"] == 3
        assert envelope["estimates"]["encoding"] == "columnar-i64"
        restored = serialization.from_obj(envelope)
        assert restored.estimates() == estimator.estimates()
        assert all(type(user) is int for user in restored.estimates())

    def test_v3_mixed_keys_fall_back_to_triples(self):
        import json

        estimator = FreeBS(1 << 10, seed=1)
        estimator.update("alice", "x")
        estimator.update(42, "y")
        estimator.update(b"raw", "z")
        estimator.update(("t", 7), "w")
        envelope = json.loads(serialization.dumps(estimator))
        assert isinstance(envelope["estimates"], list)  # not columnar
        restored = serialization.from_obj(envelope)
        assert set(restored.estimates()) == {"alice", 42, b"raw", ("t", 7)}

    def test_v1_sharded_envelope_loads(self):
        import json

        estimator = _feed(
            ShardedEstimator(lambda _k: VirtualHLL(1 << 9, virtual_size=64, seed=3), shards=2),
            _pairs(1_500, seed=6),
        )
        envelope = json.loads(serialization.dumps(estimator))
        envelope["version"] = 1
        for sub in envelope["body"]["sub"]:
            sub["version"] = 1
        restored = serialization.loads(json.dumps(envelope))
        assert restored.estimates() == estimator.estimates()

    def test_corrupted_header_rejections(self):
        import json

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
        import json

        with pytest.raises(json.JSONDecodeError):
            serialization.loads(payload[: len(payload) // 2])
