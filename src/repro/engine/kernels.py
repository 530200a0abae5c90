"""Vectorised kernels shared by every batch update path.

The paper's shared-memory estimators are all *event driven*: an arriving
pair either changes the shared array (a "change event") or is discarded.
The batch paths therefore all reduce to the same three primitives, which
this module provides independent of any particular estimator:

``bit_change_events``
    Which pairs of a batch flip a still-zero bit (FreeBS, CSE)?

``register_change_events``
    Which pairs of a batch raise a register above its running maximum
    (FreeRS, vHLL)?  Found with a per-register prefix maximum after sorting
    by (register, arrival position).

``value_after_events`` / ``event_time_for_index`` / ``last_occurrence`` /
``grouped_indices``
    Time-travel lookups: reconstruct the state of a cell *as of a given
    arrival position* from an event list, so per-user estimates can be
    evaluated at each user's last arrival exactly as the scalar paths do.
    CSE and vHLL run them when their deferred estimates are first read,
    over every event logged since the previous read (``row_blocks`` cuts
    the users into blocks of bounded size).

``map_distinct``
    A scalar formula as a column: evaluated once per distinct key (CSE's
    and vHLL's global terms, one per global array state) and gathered back.

All kernels operate on plain numpy arrays; the estimator classes own the
storage (:class:`~repro.sketches.bitarray.BitArray`,
:class:`~repro.sketches.registers.RegisterArray`) and the update semantics.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.engine.base import hot_path


@hot_path
def bit_change_events(indices: np.ndarray, zero_at_start: np.ndarray) -> np.ndarray:
    """Return the arrival-ordered batch positions that flip a zero bit.

    A pair is a change event iff its bit was zero at batch start AND it is
    the first occurrence of that bit index within the batch (after the first
    occurrence the bit is one, so later duplicates are discarded).

    Parameters
    ----------
    indices:
        ``int64`` physical bit index per pair.
    zero_at_start:
        Boolean per pair: was the bit zero before the batch?
    """
    count = int(indices.shape[0])
    first_occurrence = np.zeros(count, dtype=bool)
    _, first_positions = np.unique(indices, return_index=True)
    first_occurrence[first_positions] = True
    return np.nonzero(first_occurrence & zero_at_start)[0]


@hot_path
def register_change_events(
    indices: np.ndarray, ranks: np.ndarray, initial_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Find the pairs of a batch that raise a register.

    A pair is an event iff its rank exceeds the running maximum of (initial
    register value, ranks of earlier in-batch events on the same register) —
    exactly the condition the sequential scalar update applies.

    Parameters
    ----------
    indices:
        ``int64`` register index per pair.
    ranks:
        ``int64`` rank per pair, already clipped to the register capacity.
    initial_values:
        ``int64`` register value per pair *at batch start*.

    Returns
    -------
    (positions, registers, old_values, new_ranks)
        All in arrival order: the batch position of each event, the register
        it raises, the register's value just before the event, and the rank
        it is raised to.
    """
    count = int(indices.shape[0])
    if count == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    order = np.lexsort((np.arange(count), indices))
    sorted_registers = indices[order]
    sorted_ranks = ranks[order]
    sorted_initial = initial_values[order]

    segment_starts = np.ones(count, dtype=bool)
    segment_starts[1:] = sorted_registers[1:] != sorted_registers[:-1]

    # Running maximum *before* each element within its register segment:
    # compute an inclusive prefix max, then shift right by one inside each
    # segment (the first element of a segment sees only the initial value).
    # Segments are isolated by offsetting each with a stride larger than any
    # possible value, so np.maximum.accumulate cannot leak across them.
    inclusive = np.maximum(sorted_ranks, sorted_initial)
    stride = int(max(int(inclusive.max()), 0)) + 2
    segment_ids = np.cumsum(segment_starts) - 1
    offset = segment_ids * stride
    running = np.maximum.accumulate(inclusive + offset) - offset
    previous_max = np.empty(count, dtype=np.int64)
    previous_max[0] = sorted_initial[0]
    previous_max[1:] = np.where(segment_starts[1:], sorted_initial[1:], running[:-1])

    is_event = sorted_ranks > previous_max
    positions = order[is_event]
    arrival = np.argsort(positions, kind="stable")
    return (
        positions[arrival],
        sorted_registers[is_event][arrival],
        previous_max[is_event][arrival],
        sorted_ranks[is_event][arrival],
    )


def last_occurrence(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """Return, per code, the batch position of its last occurrence (-1 if absent)."""
    last = np.full(n_codes, -1, dtype=np.int64)
    np.maximum.at(last, codes, np.arange(codes.shape[0], dtype=np.int64))
    return last


def map_distinct(keys: np.ndarray, scalar: Callable[[int], float]) -> np.ndarray:
    """``[scalar(key) for key in keys]`` as float64, one ``scalar`` call per distinct key.

    For formulas that must stay bit-identical to their scalar form:
    ``math.log`` and ``np.log`` may differ in the last bit, so the scalar
    formula runs once per distinct integer key (at most ``len(keys)``
    calls) and one gather broadcasts the results back.
    """
    distinct, inverse = np.unique(keys, return_inverse=True)
    table = np.array([scalar(key) for key in distinct.tolist()], dtype=np.float64)
    return table[inverse.reshape(-1)]


def event_time_for_index(
    query_indices: np.ndarray,
    event_indices_sorted: np.ndarray,
    event_times: np.ndarray,
    missing: int,
) -> np.ndarray:
    """Return the event time of each queried index (``missing`` if it has none).

    For event lists where each index occurs at most once (bit flips), sorted
    ascending by index.
    """
    if event_indices_sorted.size == 0:
        return np.full(query_indices.shape, missing, dtype=np.int64)
    slot = np.searchsorted(event_indices_sorted, query_indices)
    clipped = np.minimum(slot, event_indices_sorted.size - 1)
    found = event_indices_sorted[clipped] == query_indices
    return np.where(found, event_times[clipped], missing)


@hot_path
def value_after_events(
    query_indices: np.ndarray,
    query_times: np.ndarray,
    event_indices: np.ndarray,
    event_times: np.ndarray,
    event_values: np.ndarray,
    initial_values: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Return the value of each queried cell as of its query time.

    ``event_*`` must be sorted by (index, time); ``horizon`` must exceed
    every time.  A cell's value at time ``t`` is the value written by the
    last event on it with time ``<= t``, or its initial value if none.
    """
    if event_indices.size == 0:
        return initial_values.copy()
    step = np.int64(horizon)
    event_keys = event_indices.astype(np.int64) * step + event_times.astype(np.int64)
    query_keys = query_indices.astype(np.int64) * step + query_times.astype(np.int64)
    slot = np.searchsorted(event_keys, query_keys, side="right")
    previous = np.maximum(slot - 1, 0)
    has_event = (slot > 0) & (event_indices[previous] == query_indices)
    return np.where(has_event, event_values[previous], initial_values)


def touched_query_positions(
    query_indices: np.ndarray, event_indices: np.ndarray, domain_size: int
) -> np.ndarray:
    """Return the positions of queries whose cell has at least one event.

    Batch estimates typically query far more cells (every user's whole
    virtual sketch) than the batch actually modified, and untouched cells
    just keep their initial value — so the per-query time-travel search only
    needs to run on this subset.  The filter is a dense boolean map over the
    cell domain (1 byte per cell), which beats a binary search per query as
    long as the domain is not vastly larger than the query set; above that
    threshold the filter is skipped and every query position is returned.
    """
    total = int(query_indices.shape[0])
    everything = np.arange(total, dtype=np.int64)
    if event_indices.size == 0:
        return np.empty(0, dtype=np.int64)
    if domain_size > max(1 << 24, 32 * total):
        return everything
    present = np.zeros(domain_size, dtype=bool)
    present[event_indices] = True
    return np.nonzero(present[query_indices])[0]


#: Cells per :func:`row_blocks` block (an ``int64`` block matrix is 2 MiB).
#: Settling 5,364 owed CSE or vHLL users (m = 1024, 2 CPUs) took the same
#: time at 2^18 to 2^20 cells and longer at 2^16 or 2^22, while its peak
#: temporaries grow with the block: 7.5 / 12 MiB (CSE / vHLL) at 2^18
#: against 22 / 37 MiB at 2^20.
_SETTLE_BLOCK_CELLS = 1 << 18


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Slices that cover ``range(rows)`` in blocks of about 2^18 cells.

    Each block holds ``_SETTLE_BLOCK_CELLS // width`` rows of ``width``
    cells (one row at least), so a per-row matrix built per block stays
    bounded however many rows there are.
    """
    step = max(1, _SETTLE_BLOCK_CELLS // width)
    for start in range(0, rows, step):
        yield slice(start, start + step)


def grouped_indices(
    codes: np.ndarray, n_codes: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(code, positions)`` for every code present, positions in arrival order.

    The grouping primitive of the per-user batch paths: one stable argsort,
    then contiguous segments.
    """
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.nonzero(np.diff(sorted_codes))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [sorted_codes.shape[0]]))
    for start, end in zip(starts, ends):
        if end > start:
            yield int(sorted_codes[start]), order[start:end]
