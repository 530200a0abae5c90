"""Packed array of w-bit registers with incremental harmonic-sum accounting.

Register arrays are the shared substrate of HLL, HLL++, vHLL and FreeRS.
Every HLL-style estimator needs the harmonic sum ``sum_j 2^-R[j]`` over its
registers; FreeRS additionally needs the harmonic sum of the *whole shared
array* to be available in O(1) after each update (it equals ``M * q_R(t)``).
The array therefore maintains the sum incrementally as registers grow, and
also tracks the number of zero registers (used by the small-range linear
counting correction of HLL/vHLL).

Registers are stored in a ``numpy.uint8`` vector.  The paper uses 5-bit
registers for vHLL/FreeRS and 6-bit registers for HLL++; we keep each
register in its own byte for simplicity but *account* memory as
``width * count`` bits so that the equal-memory comparisons of the paper are
faithful.  Register values are capped at ``2**width - 1``.
"""

from __future__ import annotations

import numpy as np


class RegisterArray:
    """A fixed-size array of ``count`` registers of ``width`` bits each."""

    __slots__ = (
        "count",
        "width",
        "max_value",
        "_values",
        "_harmonic_sum",
        "_zeros",
        "_pow_neg",
    )

    def __init__(self, count: int, width: int = 5) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        if not 1 <= width <= 8:
            raise ValueError("width must be between 1 and 8 bits")
        self.count = count
        self.width = width
        self.max_value = (1 << width) - 1
        self._values = np.zeros(count, dtype=np.uint8)
        # sum_j 2^-R[j]; all registers start at zero so the sum starts at count.
        self._harmonic_sum = float(count)
        self._zeros = count
        # 2^-r lookup table for the bulk update path; entries are computed
        # with the exact expression update() uses, so both paths accumulate
        # identical floats.
        self._pow_neg = [2.0 ** (-value) for value in range(self.max_value + 1)]

    # -- mutation -----------------------------------------------------------

    def update(self, index: int, rank: int) -> bool:
        """Raise register ``index`` to ``rank`` if larger; return True on change.

        ``rank`` is clipped to the register capacity ``2**width - 1``, exactly
        as a hardware register of that width would saturate.
        """
        if not 0 <= index < self.count:
            raise IndexError(f"register index {index} outside [0, {self.count})")
        rank = min(int(rank), self.max_value)
        current = int(self._values[index])
        if rank <= current:
            return False
        self._values[index] = rank
        self._harmonic_sum += 2.0 ** (-rank) - 2.0 ** (-current)
        if current == 0:
            self._zeros -= 1
        return True

    def apply_max_updates(self, indices: np.ndarray, ranks: np.ndarray):
        """Raise many registers sequentially; return per-event trajectories.

        The bulk twin of :meth:`update` for pre-filtered *change events*:
        every ``(index, rank)`` must strictly exceed the register's value at
        its turn (e.g. the output of
        :func:`repro.engine.kernels.register_change_events`).  The
        harmonic-sum and zero-count bookkeeping follows exactly the same
        sequential floating-point trajectory as calling :meth:`update` once
        per event; the returned arrays hold both statistics *after* each
        event, which is what the batch estimators need to reconstruct
        ``q_R`` / the global HLL estimate at any arrival position.
        """
        index_array = np.asarray(indices, dtype=np.int64)
        rank_array = np.minimum(np.asarray(ranks, dtype=np.int64), self.max_value)
        count = int(index_array.shape[0])
        harmonic_trajectory = np.empty(count, dtype=np.float64)
        zeros_trajectory = np.empty(count, dtype=np.int64)
        if count == 0:
            return harmonic_trajectory, zeros_trajectory
        if index_array.min() < 0 or index_array.max() >= self.count:
            raise IndexError("register index outside the array")
        table = self._pow_neg
        harmonic = self._harmonic_sum
        zeros = self._zeros
        current_values: dict = {}
        initial = self._values[index_array].astype(np.int64)
        position = 0
        for index, rank, start_value in zip(
            index_array.tolist(), rank_array.tolist(), initial.tolist()
        ):
            current = current_values.get(index, start_value)
            if rank <= current:
                raise ValueError(
                    "apply_max_updates expects strictly register-raising events"
                )
            harmonic += table[rank] - table[current]
            if current == 0:
                zeros -= 1
            current_values[index] = rank
            harmonic_trajectory[position] = harmonic
            zeros_trajectory[position] = zeros
            position += 1
        np.maximum.at(self._values, index_array, rank_array.astype(np.uint8))
        self._harmonic_sum = harmonic
        self._zeros = zeros
        return harmonic_trajectory, zeros_trajectory

    def merge_max(self, other: RegisterArray) -> None:
        """Element-wise max of another same-shape array into this one.

        The storage primitive behind every register-sketch merge (HLL-style
        unions): one vectorised maximum plus a recompute of the incremental
        statistics.
        """
        if (other.count, other.width) != (self.count, self.width):
            raise ValueError("can only merge register arrays of identical shape")
        np.maximum(self._values, other._values, out=self._values)
        self._harmonic_sum = self.recompute_harmonic_sum()
        self._zeros = self.recount_zeros()

    def copy_from(self, other: RegisterArray) -> None:
        """Overwrite this array with a same-shape array's registers and statistics."""
        if (other.count, other.width) != (self.count, self.width):
            raise ValueError("can only copy register arrays of identical shape")
        np.copyto(self._values, other._values)
        self._harmonic_sum = other._harmonic_sum
        self._zeros = other._zeros

    def copy(self) -> RegisterArray:
        """A new array holding the same registers and statistics."""
        clone = RegisterArray(self.count, self.width)
        clone.copy_from(self)
        return clone

    def clear(self) -> None:
        """Reset every register to zero."""
        self._values.fill(0)
        self._harmonic_sum = float(self.count)
        self._zeros = self.count

    # -- queries ------------------------------------------------------------

    def get(self, index: int) -> int:
        """Return the value of register ``index``."""
        if not 0 <= index < self.count:
            raise IndexError(f"register index {index} outside [0, {self.count})")
        return int(self._values[index])

    def get_many(self, indices: np.ndarray) -> np.ndarray:
        """Return the values of the requested registers as an int array."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.count):
            raise IndexError("register index outside the array")
        return self._values[idx].astype(np.int64)

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the raw register values."""
        return self._values

    @property
    def harmonic_sum(self) -> float:
        """``sum_j 2^-R[j]`` maintained incrementally (the core of q_R)."""
        return self._harmonic_sum

    @property
    def zeros(self) -> int:
        """Number of registers currently equal to zero."""
        return self._zeros

    def recompute_harmonic_sum(self) -> float:
        """Recompute the harmonic sum from scratch (test cross-check)."""
        return float(np.sum(np.exp2(-self._values.astype(np.float64))))

    def recount_zeros(self) -> int:
        """Recount zero registers from scratch (test cross-check)."""
        return int(np.count_nonzero(self._values == 0))

    def memory_bits(self) -> int:
        """Accounted memory footprint in bits (``count * width``)."""
        return self.count * self.width

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegisterArray(count={self.count}, width={self.width})"
