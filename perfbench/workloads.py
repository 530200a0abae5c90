"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload runs the served path with M = 2^20 bits, ingest batches of
4096 pairs, epochs of 65,536 pairs and an 8-epoch window, ingesting at
full speed under the same snapshot reads.  What differs is the method,
which decides whether evaluation is incremental or a full sliding merge
per batch, and whether ``sliding`` requests run beside it.  README.md
says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MEMORY_BITS = 1 << 20
BATCH_SIZE = 4096
EPOCH_PAIRS = 65_536
WINDOW_EPOCHS = 8
#: Master seed of the monitor's hash functions (fixed: the benchmark seed
#: varies the stream, not the sketch).
SKETCH_SEED = 7
#: Size of the monitor's continuous top-k (``serve --top-k``).
TOP_K = 10
#: Distinct id sets the batch_spread requests rotate through.
ID_SETS = 8


@dataclass(frozen=True)
class Connection:
    """One open-loop connection: a fixed request rate and a repeating op cycle.

    Ops are ``("batch_spread", n_ids)``, ``("topk", k)`` or ``("sliding", 0)``
    (the whole window).
    """

    rate: float
    offset: float
    cycle: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    users: int
    #: Stream length per measured second: the stream holds about
    #: ``pairs_per_second * seconds`` pairs, sized so full-speed ingest
    #: lasts about ``seconds`` at reference speed (probe.py).
    pairs_per_second: int
    #: Checkpoint every this many batches (0: no snapshot store).
    snapshot_every: int
    #: The open-loop read load that runs while ingest does.
    connections: tuple[Connection, ...]


_SNAPSHOT_READS = Connection(
    rate=90.0, offset=0.0, cycle=(("batch_spread", 1000), ("topk", TOP_K))
)
# Whole-window sliding on its own connection, so its lock waits do not
# queue the snapshot reads behind it.  Each one holds the ingest lock for
# a full merge, and where it lands decides the read tail, CSE's peak RSS
# and how long ingest waits.  At 1/s on CSE that spread the read p99 and
# the peak RSS across runs about as wide as their bounds, so only the
# FreeBS workload sends them.
_SLIDING = Connection(rate=2.0, offset=0.25, cycle=(("sliding", 0),))

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="additive_ingest",
            method="FreeBS",
            users=50_000,
            pairs_per_second=75_000,
            snapshot_every=32,
            connections=(_SNAPSHOT_READS, _SLIDING),
        ),
        Workload(
            name="exact_merge_ingest",
            method="CSE",
            users=20_000,
            pairs_per_second=25_000,
            snapshot_every=0,
            connections=(_SNAPSHOT_READS,),
        ),
    )
}


@dataclass
class Inputs:
    """Everything generated from (workload, seed, seconds, scale)."""

    pairs: list[tuple[int, int]]
    users: np.ndarray  # distinct users of the stream, ascending
    id_sets: list[np.ndarray]  # batch_spread probes, drawn from persistent users
    epoch_pairs: int
    batch_size: int


def make_inputs(workload: Workload, seed: int, seconds: float, scale: float) -> Inputs:
    """The seeded Zipf stream and the read probes for one run."""
    from repro.streams.generators import zipf_bipartite_stream

    epoch_pairs = max(256, int(EPOCH_PAIRS * scale))
    batch_size = max(64, int(BATCH_SIZE * scale))
    total = max(4 * batch_size, int(workload.pairs_per_second * seconds * scale))
    users_count = max(50, int(workload.users * min(1.0, scale)))
    # duplicate_factor 0.5 (the generator's default) adds half again as
    # many repeated pairs, so ask for two thirds of the total as distinct.
    pairs = zipf_bipartite_stream(users_count, n_pairs=total * 2 // 3, seed=seed)
    user_column = np.fromiter((user for user, _ in pairs), dtype=np.int64, count=len(pairs))
    # Probe users present in every epoch, so batch_spread stays on the
    # all-hit path for the whole run instead of drifting onto the miss path
    # as the window slides.
    persistent = np.unique(user_column[:epoch_pairs])
    for start in range(epoch_pairs, len(pairs), epoch_pairs):
        persistent = np.intersect1d(persistent, user_column[start : start + epoch_pairs])
    if persistent.size == 0:
        persistent = np.unique(user_column[-epoch_pairs:])
    rng = np.random.default_rng(seed ^ 0xB3AD)
    largest = max(
        arg for c in workload.connections for op, arg in c.cycle if op == "batch_spread"
    )
    id_sets = [rng.choice(persistent, size=largest).astype(np.int64) for _ in range(ID_SETS)]
    return Inputs(
        pairs=pairs,
        users=np.unique(user_column),
        id_sets=id_sets,
        epoch_pairs=epoch_pairs,
        batch_size=batch_size,
    )
