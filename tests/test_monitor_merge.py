"""Edges of the merge declarations every registry method shares.

Each method declares its merge family and the attributes both sides must
share (``MethodSpec.merge``); :mod:`repro.monitor.merge` implements each
family once.  These tests pin the behaviour at the declaration's edges:
mismatched dimensioning or seeds are refused for every method, and an
estimator with no declaration has no merge.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import ExactCounter
from repro.experiments.config import ExperimentConfig
from repro.monitor.merge import (
    fresh_estimates,
    merge_exactness,
    merge_into,
    refresh_estimates_from_state,
    sliding_prefix,
)
from repro.registry import METHOD_ORDER, build

_CONFIG = ExperimentConfig(memory_bits=1 << 14, virtual_size=64, seed=3)
_USERS = 40


def _fed(method: str, config: ExperimentConfig):
    estimator = build(method, config, _USERS)
    for index in range(300):
        estimator.update(index % _USERS, index)
    return estimator


@pytest.mark.parametrize("method", METHOD_ORDER)
@pytest.mark.parametrize(
    "other",
    [replace(_CONFIG, seed=4), replace(_CONFIG, memory_bits=1 << 15)],
    ids=["seed", "memory"],
)
def test_merge_into_refuses_a_differently_built_side(method, other):
    target = _fed(method, _CONFIG)
    before = target.estimates()
    with pytest.raises(ValueError, match="must match on both sides"):
        merge_into(target, _fed(method, other))
    assert target.estimates() == before


class TestUndeclaredEstimator:
    """ExactCounter has no merge declaration: it is not mergeable."""

    @pytest.fixture()
    def counter(self):
        counter = ExactCounter()
        for index in range(50):
            counter.update(index % 7, index)
        return counter

    def test_merges_raise_type_error(self, counter):
        message = "no monitor merge support for ExactCounter"
        with pytest.raises(TypeError, match=message):
            merge_exactness(counter)
        with pytest.raises(TypeError, match=message):
            merge_into(counter, ExactCounter())
        with pytest.raises(TypeError, match=message):
            sliding_prefix([counter])

    def test_refresh_is_a_no_op(self, counter):
        before = counter.estimates()
        refresh_estimates_from_state(counter)
        assert counter.estimates() == before

    def test_fresh_estimates_are_its_estimates(self, counter):
        assert fresh_estimates(counter) == counter.estimates()
