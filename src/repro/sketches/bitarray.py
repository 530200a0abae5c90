"""Packed bit array with constant-time zero-bit accounting.

The bit array is the shared substrate of LPC, CSE and FreeBS.  Both CSE and
FreeBS need to know, at every time step, how many bits of the array are still
zero (the "fill" of the array); FreeBS additionally needs that count to be
maintained in O(1) per update.  The array therefore tracks the number of set
bits incrementally and never recounts unless explicitly asked to
(:meth:`BitArray.recount`, used by the test-suite to cross-check the
incremental bookkeeping).

Bits are stored packed, 64 per ``numpy.uint64`` word, so a 2**20-bit array
costs 128 KiB rather than the 8 MiB a byte-per-bit representation would use.
"""

from __future__ import annotations

import numpy as np


class BitArray:
    """A fixed-size array of ``size`` bits, all initially zero."""

    __slots__ = ("size", "_words", "_ones")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        n_words = (size + 63) // 64
        self._words = np.zeros(n_words, dtype=np.uint64)
        self._ones = 0

    # -- mutation -----------------------------------------------------------

    def set_bit(self, index: int) -> bool:
        """Set bit ``index`` to one; return True if the bit was previously zero."""
        if not 0 <= index < self.size:
            raise IndexError(f"bit index {index} outside [0, {self.size})")
        word_index, bit = divmod(index, 64)
        mask = np.uint64(1) << np.uint64(bit)
        word = self._words[word_index]
        if word & mask:
            return False
        self._words[word_index] = word | mask
        self._ones += 1
        return True

    def set_bits(self, indices: np.ndarray) -> int:
        """Set many bits at once; return how many transitioned from 0 to 1.

        Duplicates inside ``indices`` are handled correctly (each bit is
        counted at most once).
        """
        return self.set_many(indices)

    def set_many(self, indices: np.ndarray) -> int:
        """Vectorised bulk bit-set; return how many bits transitioned 0 -> 1.

        This is the commit step of the engine's batch update paths: the word
        updates go through ``np.bitwise_or.at`` instead of a Python loop, so
        committing a batch costs O(unique bits) numpy work rather than one
        Python-level ``set_bit`` per bit.
        """
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        if idx.size == 0:
            return 0
        if idx[0] < 0 or idx[-1] >= self.size:
            raise IndexError("bit index outside the array")
        word_indices = idx // 64
        masks = np.uint64(1) << (idx % 64).astype(np.uint64)
        newly_set = int(np.count_nonzero((self._words[word_indices] & masks) == 0))
        np.bitwise_or.at(self._words, word_indices, masks)
        self._ones += newly_set
        return newly_set

    def set_new_bits(self, indices: np.ndarray) -> None:
        """Set bits that are distinct and currently zero (change events).

        The commit step for :func:`~repro.engine.kernels.bit_change_events`
        output, whose bits are distinct and were zero at batch start: every
        one transitions, so no sort is needed to count them.  Input with
        duplicates or set bits goes through :meth:`set_many`.
        """
        word_indices = indices >> 6
        masks = np.uint64(1) << (indices & 63).astype(np.uint64)
        np.bitwise_or.at(self._words, word_indices, masks)
        self._ones += int(indices.size)

    def union_update(self, other: BitArray) -> None:
        """OR another same-size array into this one (sketch-level union).

        The storage primitive behind every bit-sketch merge (LPC, CSE,
        FreeBS): one vectorised word-wise OR plus a popcount recount.
        """
        if other.size != self.size:
            raise ValueError("can only union bit arrays of identical size")
        np.bitwise_or(self._words, other._words, out=self._words)
        self._ones = self.recount()

    def copy_from(self, other: BitArray) -> None:
        """Overwrite this array with a same-size array's bits (no allocation)."""
        if other.size != self.size:
            raise ValueError("can only copy bit arrays of identical size")
        np.copyto(self._words, other._words)
        self._ones = other._ones

    def copy(self) -> BitArray:
        """A new array holding the same bits."""
        clone = BitArray(self.size)
        clone.copy_from(self)
        return clone

    def clear(self) -> None:
        """Reset every bit to zero."""
        self._words.fill(0)
        self._ones = 0

    # -- queries ------------------------------------------------------------

    def get_bit(self, index: int) -> bool:
        """Return True if bit ``index`` is one."""
        if not 0 <= index < self.size:
            raise IndexError(f"bit index {index} outside [0, {self.size})")
        word_index, bit = divmod(index, 64)
        return bool(self._words[word_index] >> np.uint64(bit) & np.uint64(1))

    def get_bits(self, indices: np.ndarray) -> np.ndarray:
        """Return a boolean array with the values of the requested bits.

        Gathers one byte per index from a ``uint8`` view of the words (bit
        ``i`` is bit ``i % 8`` of byte ``i // 8`` in the little-endian word
        layout :meth:`to_numpy` also relies on), which moves an eighth of
        the memory a 64-bit word gather does.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise IndexError("bit index outside the array")
        octets = self._words.view(np.uint8)[idx >> 3]
        return ((octets >> (idx & 7).astype(np.uint8)) & np.uint8(1)).astype(bool)

    @property
    def ones(self) -> int:
        """Number of bits currently set to one (maintained incrementally)."""
        return self._ones

    @property
    def zeros(self) -> int:
        """Number of bits currently equal to zero."""
        return self.size - self._ones

    @property
    def zero_fraction(self) -> float:
        """Fraction of bits equal to zero (the ``U/M`` of LPC/CSE/FreeBS)."""
        return (self.size - self._ones) / self.size

    def recount(self) -> int:
        """Recount set bits from the raw words (O(size/64)); used for checks."""
        counts = np.bitwise_count(self._words) if hasattr(np, "bitwise_count") else None
        if counts is None:
            total = sum(int(word).bit_count() for word in self._words)
        else:
            total = int(counts.sum())
        return total

    def memory_bits(self) -> int:
        """Memory footprint of the bit payload in bits."""
        return self.size

    def to_numpy(self) -> np.ndarray:
        """Return the full array as a boolean numpy vector (for analysis)."""
        bits = np.unpackbits(self._words.view(np.uint8), count=self.size, bitorder="little")
        return bits.view(np.bool_)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitArray(size={self.size}, ones={self._ones})"
