"""The paper's primary contribution: FreeBS and FreeRS.

Both estimators maintain a single shared array (bits for FreeBS, HLL
registers for FreeRS) plus one running counter per observed user, and update
both in O(1) per arriving (user, item) pair.  They report every user's
cardinality *at any time* during the stream, which is the "over time"
property the paper's title refers to.

Each has one implementation: the scalar ``update`` (the paper's per-pair
model) and the engine's vectorised ``update_encoded`` live on the same
class, share its arena and are bit-identical.  :mod:`repro.core.serialization`
snapshots them and every other compared method.
"""

from repro.core.base import CardinalityEstimator, EstimatorState
from repro.core.freebs import FreeBS
from repro.core.freers import FreeRS

__all__ = [
    "CardinalityEstimator",
    "EstimatorState",
    "FreeBS",
    "FreeRS",
]
