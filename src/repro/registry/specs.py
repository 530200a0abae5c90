"""Method specifications: the single authoritative description of each method.

Every construction site in the repository — the experiments factory, the CLI,
the monitor configuration and the snapshot serialiser — used to carry its own
if/elif chain over method names, with subtly different ``virtual_size``
clamping between them.  This module replaces all of that with one
:class:`MethodSpec` per method, pinning down:

* the **constructor** (``estimator_cls``) and how to call it;
* the **equal-memory dimensioning rule** (``dimension``) implementing the
  paper's protocol (Section V-B): FreeBS and CSE get ``M`` bits, FreeRS and
  vHLL get ``M / w`` registers of ``w`` bits, the per-user baselines are
  dimensioned from the expected user population;
* the **merge declaration** (``merge``, a :class:`MergeSpec`): the merge
  family and the attributes both sides of a merge must share.
  :mod:`repro.monitor.merge` looks it up by estimator class and implements
  each family once.  ``mergeable`` derives from it: sketch-level union
  merges are *exact* for the shared-array and per-user families (CSE /
  vHLL / LPC / HLL++ — estimates are pure functions of order-independent
  sketch state) and only *additive* for FreeBS / FreeRS (Horvitz–Thompson
  sums depend on the fill trajectory);
* the **serialization tag** (``tag``): the ``kind`` string used by
  :mod:`repro.core.serialization` snapshot envelopes.

The virtual-sketch methods share one documented clamp,
:func:`clamp_virtual_size`; the historical divergence (CSE clamped only to
``memory_bits`` while vHLL clamped to a quarter of the register capacity) is
gone.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from dataclasses import dataclass
from typing import Any, Protocol

from repro.baselines import CSE, PerUserHLLPP, PerUserLPC, VirtualHLL
from repro.core import FreeBS, FreeRS
from repro.core.base import CardinalityEstimator
from repro.sketches import BitArray, RegisterArray

#: Floor of the virtual sketch size: below this the LC/HLL estimators are
#: meaningless, so the clamp never dimensions a virtual sketch smaller.
MIN_VIRTUAL_SIZE = 16

#: Upper clamp fraction: a virtual sketch larger than a quarter of the shared
#: physical capacity leaves too little head-room for the noise-subtraction
#: terms of CSE/vHLL to work (almost every physical cell would belong to
#: every user), so the requested size is capped at ``capacity // 4``.
CAPACITY_FRACTION = 4


class DimensionConfig(Protocol):
    """The four dimensioning knobs every rule reads.

    Structurally typed: anything exposing these (``ExperimentConfig`` in
    practice, :class:`repro.registry.factory._ShardConfig` for per-shard
    budgets) dimensions identically.
    """

    @property
    def memory_bits(self) -> int: ...

    @property
    def virtual_size(self) -> int: ...

    @property
    def register_width(self) -> int: ...

    @property
    def seed(self) -> int: ...


#: Rule mapping ``(config, expected_users) -> constructor kwargs``.
DimensionRule = Callable[[DimensionConfig, int], dict[str, object]]


def shared_registers(config: DimensionConfig) -> int:
    """Register count under the equal-memory protocol: ``max(16, M // w)``.

    Matches :attr:`repro.experiments.config.ExperimentConfig.registers` so
    duck-typed configs without that property dimension identically.
    """
    return max(16, config.memory_bits // config.register_width)


def clamp_virtual_size(requested: int, capacity: int, *, strict: bool = False) -> int:
    """The one shared virtual-sketch dimensioning rule for CSE and vHLL.

    ``m = min(requested, max(MIN_VIRTUAL_SIZE, capacity // 4), upper)`` where
    ``capacity`` is the shared physical capacity (bits for CSE, registers for
    vHLL) and ``upper`` keeps the constructor invariants satisfiable:
    ``capacity`` for CSE (``m <= M`` bits), ``capacity - 1`` for vHLL
    (``m < M`` registers, ``strict=True``).  Heavily-sharded configurations
    (small per-shard capacity) therefore always stay valid, and both methods
    degrade the same way instead of CSE silently keeping an oversized virtual
    sketch.
    """
    if requested <= 0:
        raise ValueError("virtual_size must be positive")
    upper = capacity - 1 if strict else capacity
    return min(requested, max(MIN_VIRTUAL_SIZE, capacity // CAPACITY_FRACTION), upper)


def _dimension_freebs(config: DimensionConfig, expected_users: int) -> dict[str, object]:
    """FreeBS gets the full memory budget as one shared bit array."""
    return {"memory_bits": config.memory_bits, "seed": config.seed}


def _dimension_freers(config: DimensionConfig, expected_users: int) -> dict[str, object]:
    """FreeRS gets ``M / w`` shared registers of ``w`` bits."""
    return {
        "registers": shared_registers(config),
        "register_width": config.register_width,
        "seed": config.seed,
    }


def _dimension_cse(config: DimensionConfig, expected_users: int) -> dict[str, object]:
    """CSE gets ``M`` shared bits; the virtual sketch follows the shared clamp."""
    return {
        "memory_bits": config.memory_bits,
        "virtual_size": clamp_virtual_size(config.virtual_size, config.memory_bits),
        "seed": config.seed,
    }


def _dimension_vhll(config: DimensionConfig, expected_users: int) -> dict[str, object]:
    """vHLL gets ``M / w`` shared registers; the virtual sketch must stay smaller."""
    registers = shared_registers(config)
    return {
        "registers": registers,
        "virtual_size": clamp_virtual_size(config.virtual_size, registers, strict=True),
        "register_width": config.register_width,
        "seed": config.seed,
    }


def _dimension_lpc(config: DimensionConfig, expected_users: int) -> dict[str, object]:
    """Per-user LPC splits the budget into ``M / |S|`` bits per expected user."""
    return {
        "memory_bits": config.memory_bits,
        "expected_users": expected_users,
        "seed": config.seed,
    }


def _dimension_hllpp(config: DimensionConfig, expected_users: int) -> dict[str, object]:
    """Per-user HLL++ splits the budget into ``M / (6 |S|)`` six-bit registers."""
    return {
        "memory_bits": config.memory_bits,
        "expected_users": expected_users,
        "seed": config.seed,
    }


#: Merge families (:attr:`MergeSpec.family`), each implemented once in
#: :mod:`repro.monitor.merge`.  ``additive``: union the shared array and sum
#: the estimate columns.  ``shared-array``: union the shared array, then
#: re-evaluate the union's users with the array closed form.  ``per-user``:
#: merge the per-user sketches.
ADDITIVE = "additive"
SHARED_ARRAY = "shared-array"
PER_USER = "per-user"


@dataclass(frozen=True)
class MergeSpec:
    """How two estimators of one method union-merge."""

    #: :data:`ADDITIVE`, :data:`SHARED_ARRAY` or :data:`PER_USER`.
    family: str
    #: Attributes both sides must share (dimensioning and seeds); dotted
    #: names reach into the shared array.
    shared: tuple[str, ...]
    #: Attribute holding the shared array (additive and shared-array families).
    array: str = ""
    #: In-place union of two shared arrays: OR for bits, max for registers.
    union: Callable[[Any, Any], None] | None = None

    @property
    def exact(self) -> bool:
        """Whether the merged estimate equals a single run's fresh re-estimate."""
        return self.family != ADDITIVE


@dataclass(frozen=True)
class MethodSpec:
    """Everything the rest of the system needs to know about one method."""

    #: Canonical method name (the key of :data:`REGISTRY`, shown in tables).
    name: str
    #: ``kind`` tag of :mod:`repro.core.serialization` snapshot envelopes.
    tag: str
    #: Estimator class the spec constructs.
    estimator_cls: type[CardinalityEstimator]
    #: Equal-memory dimensioning rule (see module docstring).
    dimension: DimensionRule
    #: Merge family and shared attributes (see :class:`MergeSpec`).
    merge: MergeSpec
    #: One-line description for docs and ``--help`` output.
    summary: str

    @property
    def mergeable(self) -> bool:
        """True when sketch-level union merges are *exact* (not additive)."""
        return self.merge.exact

    def dimensions(self, config: DimensionConfig, expected_users: int) -> dict[str, object]:
        """Constructor kwargs for this method under ``config``'s budget."""
        return self.dimension(config, expected_users)

    def describe(self) -> dict[str, object]:
        """JSON-ready description of the spec.

        The service layer's ``stats`` op embeds this so a remote client can
        learn the served method's merge exactness without importing the
        registry.
        """
        return {
            "name": self.name,
            "tag": self.tag,
            "estimator": self.estimator_cls.__name__,
            "mergeable": self.mergeable,
            "summary": self.summary,
        }

    def build(self, config: DimensionConfig, expected_users: int) -> CardinalityEstimator:
        """Construct the estimator under the configuration's memory budget."""
        # Bound as a plain callable: the concrete constructors take
        # method-specific keyword sets a ``type[CardinalityEstimator]`` call
        # signature cannot express.
        construct: Callable[..., CardinalityEstimator] = self.estimator_cls
        return construct(**self.dimensions(config, expected_users))


#: The central registry, in the order every table and legend uses.
REGISTRY: Mapping[str, MethodSpec] = {
    spec.name: spec
    for spec in (
        MethodSpec(
            name="FreeBS",
            tag="FreeBS",
            estimator_cls=FreeBS,
            dimension=_dimension_freebs,
            merge=MergeSpec(ADDITIVE, ("M", "seed"), "_bits", BitArray.union_update),
            summary="bit-sharing estimator with Horvitz-Thompson updates (the paper's)",
        ),
        MethodSpec(
            name="FreeRS",
            tag="FreeRS",
            estimator_cls=FreeRS,
            dimension=_dimension_freers,
            merge=MergeSpec(
                ADDITIVE, ("M", "_registers.width", "seed"), "_registers", RegisterArray.merge_max
            ),
            summary="register-sharing estimator with HT updates (the paper's)",
        ),
        MethodSpec(
            name="CSE",
            tag="CSE",
            estimator_cls=CSE,
            dimension=_dimension_cse,
            merge=MergeSpec(SHARED_ARRAY, ("M", "m", "seed"), "_bits", BitArray.union_update),
            summary="compact spread estimator: virtual LPC over shared bits",
        ),
        MethodSpec(
            name="vHLL",
            tag="vHLL",
            estimator_cls=VirtualHLL,
            dimension=_dimension_vhll,
            merge=MergeSpec(
                SHARED_ARRAY,
                ("M", "m", "_registers.width", "seed"),
                "_registers",
                RegisterArray.merge_max,
            ),
            summary="virtual HyperLogLog over shared registers",
        ),
        MethodSpec(
            name="LPC",
            tag="LPC",
            estimator_cls=PerUserLPC,
            dimension=_dimension_lpc,
            merge=MergeSpec(PER_USER, ("bits_per_user", "seed")),
            summary="per-user linear probabilistic counting baseline",
        ),
        MethodSpec(
            name="HLL++",
            tag="HLL++",
            estimator_cls=PerUserHLLPP,
            dimension=_dimension_hllpp,
            merge=MergeSpec(PER_USER, ("registers_per_user", "register_width", "seed")),
            summary="per-user HyperLogLog++ baseline",
        ),
    )
}

#: Order in which methods appear in every table (matches the paper's legends).
METHOD_ORDER = list(REGISTRY)

#: Each registry class's merge declaration, looked up by ``type(estimator)``.
MERGE_SPECS: Mapping[type, MergeSpec] = {
    spec.estimator_cls: spec.merge for spec in REGISTRY.values()
}
