"""The single ``build()`` entry point over the method registry.

All estimator construction in the repository funnels through here: the
experiments factory, the CLI ``estimate`` command and the monitor
configuration all call :func:`build` (or its multi-method convenience
:func:`build_many`), so the equal-memory protocol, the virtual-size
clamping and the sharded wrapping are decided in exactly one place.
"""

from __future__ import annotations

from collections.abc import Iterable

from dataclasses import dataclass

from repro.core.base import CardinalityEstimator
from repro.engine.sharded import ShardedEstimator
from repro.registry.specs import METHOD_ORDER, REGISTRY, DimensionConfig, MethodSpec

#: Smallest per-shard memory budget the dimensioning rules stay sane under.
MIN_SHARD_MEMORY_BITS = 64


@dataclass(frozen=True)
class _ShardConfig:
    """A per-shard budget: the four dimensioning knobs and nothing else.

    The sharded path must not mutate the caller's config, and the dimension
    rules read only these knobs — so the shard budget is a fresh value, not
    a ``dataclasses.replace`` of whatever config type the caller passed.
    """

    memory_bits: int
    virtual_size: int
    register_width: int
    seed: int


def method_names() -> list[str]:
    """Canonical method names in table order."""
    return list(METHOD_ORDER)


def spec_for(method: str) -> MethodSpec:
    """Look up the :class:`MethodSpec` of ``method`` (raising on unknowns)."""
    try:
        return REGISTRY[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; known: {METHOD_ORDER}") from None


def _default_config() -> DimensionConfig:
    # Imported lazily: repro.experiments.__init__ imports the experiment
    # modules, which import this package — a module-level import would cycle.
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig()


def build(
    method: str,
    config: DimensionConfig | None = None,
    expected_users: int = 1000,
    shards: int = 1,
) -> CardinalityEstimator:
    """Build one estimator by method name under the configuration's budget.

    Parameters
    ----------
    method:
        One of :data:`~repro.registry.specs.METHOD_ORDER`.
    config:
        Dimensioning configuration (``memory_bits``, ``virtual_size``,
        ``register_width``, ``seed``); defaults to a fresh
        :class:`~repro.experiments.config.ExperimentConfig`.
    expected_users:
        User population used to dimension the per-user baselines.
    shards:
        With ``shards > 1`` the estimator is a
        :class:`~repro.engine.ShardedEstimator` of that many sub-sketches,
        each dimensioned at ``1/shards`` of the memory budget and expected
        users (so the totals stay at the configured budget).
    """
    spec = spec_for(method)
    if config is None:
        config = _default_config()
    if shards <= 0:
        raise ValueError("shards must be positive")
    if shards == 1:
        return spec.build(config, expected_users)
    shard_memory = config.memory_bits // shards
    if shard_memory < MIN_SHARD_MEMORY_BITS:
        raise ValueError(
            f"memory budget of {config.memory_bits} bits is too small for "
            f"{shards} shards (each shard would get {shard_memory} < "
            f"{MIN_SHARD_MEMORY_BITS} bits); raise the budget or lower the shard count"
        )
    shard_config = _ShardConfig(
        memory_bits=shard_memory,
        virtual_size=config.virtual_size,
        register_width=config.register_width,
        seed=config.seed,
    )
    shard_users = max(1, expected_users // shards)

    def factory(_shard_index: int) -> CardinalityEstimator:
        return spec.build(shard_config, shard_users)

    return ShardedEstimator(factory, shards=shards, seed=config.seed)


def build_many(
    config: DimensionConfig | None = None,
    expected_users: int = 1000,
    methods: Iterable[str] | None = None,
    shards: int = 1,
) -> dict[str, CardinalityEstimator]:
    """Build several estimators under one shared memory budget.

    ``methods`` defaults to all of :data:`~repro.registry.specs.METHOD_ORDER`;
    unknown names are rejected up front so a typo cannot silently shrink a
    comparison.
    """
    selected: list[str] = list(methods) if methods is not None else list(METHOD_ORDER)
    unknown = set(selected) - set(REGISTRY)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)}; known: {METHOD_ORDER}")
    return {
        method: build(method, config, expected_users, shards=shards) for method in selected
    }
