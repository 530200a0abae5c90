"""Tests for the central method registry (specs, dimensioning, parity).

The parity suite re-implements the pre-refactor construction chains
literally (the if/elif bodies that used to live in
``repro/experiments/estimators.py``) and asserts the registry builds
estimators that produce *identical* estimates on a randomized stream — the
registry migration must not change a single bit of any experiment.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import CSE, PerUserHLLPP, PerUserLPC, VirtualHLL
from repro.core import FreeBS, FreeRS
from repro.core import serialization
from repro.engine import ShardedEstimator
from repro.experiments.config import ExperimentConfig
from repro.experiments.estimators import build_estimator, build_estimators
from repro.registry import (
    METHOD_ORDER,
    REGISTRY,
    build,
    build_many,
    clamp_virtual_size,
    spec_for,
)
from repro.streams.generators import zipf_bipartite_stream

#: Configuration under which the unified clamp agrees with both legacy rules,
#: so the parity check is exact (see test_clamp_* for where they diverge).
_CONFIG = ExperimentConfig(memory_bits=1 << 16, virtual_size=128, seed=11)
_EXPECTED_USERS = 120


def _legacy_build(method: str, config: ExperimentConfig, expected_users: int):
    """The pre-refactor construction, verbatim, as the parity reference."""
    registers = config.registers
    virtual_size = min(config.virtual_size, max(16, registers // 4), registers - 1)
    if method == "FreeBS":
        return FreeBS(config.memory_bits, seed=config.seed)
    if method == "FreeRS":
        return FreeRS(registers, register_width=config.register_width, seed=config.seed)
    if method == "CSE":
        cse_virtual = min(config.virtual_size, config.memory_bits)
        return CSE(config.memory_bits, virtual_size=cse_virtual, seed=config.seed)
    if method == "vHLL":
        return VirtualHLL(
            registers,
            virtual_size=virtual_size,
            register_width=config.register_width,
            seed=config.seed,
        )
    if method == "LPC":
        return PerUserLPC(config.memory_bits, expected_users=expected_users, seed=config.seed)
    if method == "HLL++":
        return PerUserHLLPP(config.memory_bits, expected_users=expected_users, seed=config.seed)
    raise AssertionError(method)


@pytest.fixture(scope="module")
def stream_pairs():
    return list(
        zipf_bipartite_stream(n_users=_EXPECTED_USERS, n_pairs=6000, seed=5)
    )


class TestSpecs:
    def test_method_order_matches_registry(self):
        assert METHOD_ORDER == list(REGISTRY)
        assert METHOD_ORDER == ["FreeBS", "FreeRS", "CSE", "vHLL", "LPC", "HLL++"]

    def test_merge_capability_mirrors_monitor_semantics(self):
        from repro.monitor.merge import EXACT, merge_exactness

        for name, spec in REGISTRY.items():
            estimator = build(name, _CONFIG, _EXPECTED_USERS)
            assert spec.mergeable == (merge_exactness(estimator) == EXACT), name

    def test_serialization_tags_round_trip(self, stream_pairs):
        for name, spec in REGISTRY.items():
            estimator = build(name, _CONFIG, _EXPECTED_USERS)
            for user, item in stream_pairs[:400]:
                estimator.update(user, item)
            payload = serialization.dumps(estimator)
            assert json.loads(payload)["kind"] == spec.tag
            restored = serialization.loads(payload)
            assert restored.estimates() == estimator.estimates()

    def test_spec_lookups(self):
        assert spec_for("vHLL").estimator_cls is VirtualHLL
        assert spec_for("HLL++").tag == "HLL++"
        with pytest.raises(ValueError, match="unknown method"):
            spec_for("nope")


class TestDimensioning:
    def test_clamp_agrees_with_legacy_vhll_rule(self):
        registers = _CONFIG.registers
        legacy = min(_CONFIG.virtual_size, max(16, registers // 4), registers - 1)
        assert clamp_virtual_size(_CONFIG.virtual_size, registers, strict=True) == legacy

    def test_clamp_caps_cse_at_a_quarter_of_capacity(self):
        # The legacy CSE rule allowed the virtual sketch to swallow the whole
        # bit array (min(512, 256) == 256); the unified rule caps it at a
        # quarter so the noise-subtraction term keeps head-room.
        assert clamp_virtual_size(512, 256) == 64
        assert clamp_virtual_size(512, 2048) == 512
        assert clamp_virtual_size(128, 1 << 16) == 128

    def test_clamp_keeps_vhll_constructor_invariant(self):
        # Tiny register files: the result must stay strictly below capacity.
        assert clamp_virtual_size(64, 16, strict=True) == 15
        assert clamp_virtual_size(3, 16, strict=True) == 3

    def test_clamp_rejects_nonpositive_requests(self):
        with pytest.raises(ValueError):
            clamp_virtual_size(0, 1024)

    def test_both_virtual_methods_build_under_tiny_shard_budgets(self):
        tiny = ExperimentConfig(memory_bits=1 << 10, virtual_size=1024, seed=3)
        cse = build("CSE", tiny, 10)
        vhll = build("vHLL", tiny, 10)
        assert cse.m <= cse.M // 4 or cse.m == 16
        assert vhll.m < vhll.M


class TestParity:
    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_registry_matches_legacy_construction(self, method, stream_pairs):
        legacy = _legacy_build(method, _CONFIG, _EXPECTED_USERS)
        registry_built = build(method, _CONFIG, _EXPECTED_USERS)
        assert type(registry_built) is type(legacy)
        for user, item in stream_pairs:
            legacy.update(user, item)
            registry_built.update(user, item)
        assert registry_built.estimates() == legacy.estimates()

    def test_facade_delegates_to_registry(self, stream_pairs):
        via_facade = build_estimator("FreeRS", _CONFIG, _EXPECTED_USERS)
        via_registry = build("FreeRS", _CONFIG, _EXPECTED_USERS)
        for user, item in stream_pairs[:500]:
            via_facade.update(user, item)
            via_registry.update(user, item)
        assert via_facade.estimates() == via_registry.estimates()


class TestBuildMany:
    def test_builds_all_methods_in_order(self):
        estimators = build_many(_CONFIG, _EXPECTED_USERS)
        assert list(estimators) == METHOD_ORDER

    def test_rejects_unknown_methods(self):
        with pytest.raises(ValueError, match="unknown methods"):
            build_many(_CONFIG, _EXPECTED_USERS, methods=["FreeBS", "nope"])

    def test_sharded_build_splits_the_budget(self):
        estimator = build("FreeBS", _CONFIG, _EXPECTED_USERS, shards=4)
        assert isinstance(estimator, ShardedEstimator)
        assert estimator.num_shards == 4
        assert estimator.memory_bits() == (_CONFIG.memory_bits // 4) * 4

    def test_sharded_build_rejects_starved_shards(self):
        tiny = ExperimentConfig(memory_bits=256)
        with pytest.raises(ValueError, match="too small"):
            build("FreeBS", tiny, 10, shards=8)

    def test_facade_sharded_matches_registry(self):
        facade = build_estimators(_CONFIG, _EXPECTED_USERS, methods=["vHLL"], shards=2)
        assert isinstance(facade["vHLL"], ShardedEstimator)
        assert facade["vHLL"].num_shards == 2
