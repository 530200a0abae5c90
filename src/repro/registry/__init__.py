"""Central method registry: one authoritative description per method.

This package is the repository's method layer.  Each of the six compared
methods (FreeBS, FreeRS, CSE, vHLL, per-user LPC, per-user HLL++) has one
:class:`~repro.registry.specs.MethodSpec` recording its constructor, its
equal-memory dimensioning rule, its merge declaration
(:class:`~repro.registry.specs.MergeSpec`) and its serialization tag;
:func:`~repro.registry.factory.build` is the single entry point every
construction site uses (experiments, CLI, monitor, runtime, serialization).
"""

from repro.registry.factory import (
    build,
    build_many,
    method_names,
    spec_for,
)
from repro.registry.specs import (
    MERGE_SPECS,
    METHOD_ORDER,
    MIN_VIRTUAL_SIZE,
    REGISTRY,
    DimensionConfig,
    MergeSpec,
    MethodSpec,
    clamp_virtual_size,
    shared_registers,
)

__all__ = [
    "MERGE_SPECS",
    "METHOD_ORDER",
    "MIN_VIRTUAL_SIZE",
    "REGISTRY",
    "DimensionConfig",
    "MergeSpec",
    "MethodSpec",
    "build",
    "build_many",
    "clamp_virtual_size",
    "method_names",
    "shared_registers",
    "spec_for",
]
