"""Unit tests for the packed bit-array substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketches.bitarray import BitArray


class TestBitArrayBasics:
    def test_starts_all_zero(self):
        bits = BitArray(100)
        assert bits.ones == 0
        assert bits.zeros == 100
        assert bits.zero_fraction == 1.0

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            BitArray(0)

    def test_set_and_get(self):
        bits = BitArray(130)
        assert bits.set_bit(0) is True
        assert bits.set_bit(64) is True
        assert bits.set_bit(129) is True
        assert bits.get_bit(0)
        assert bits.get_bit(64)
        assert bits.get_bit(129)
        assert not bits.get_bit(1)

    def test_set_same_bit_twice_reports_no_change(self):
        bits = BitArray(10)
        assert bits.set_bit(3) is True
        assert bits.set_bit(3) is False
        assert bits.ones == 1

    def test_out_of_range_indices_raise(self):
        bits = BitArray(10)
        with pytest.raises(IndexError):
            bits.set_bit(10)
        with pytest.raises(IndexError):
            bits.set_bit(-1)
        with pytest.raises(IndexError):
            bits.get_bit(10)

    def test_len(self):
        assert len(BitArray(77)) == 77


class TestBitArrayCounting:
    def test_ones_tracks_incrementally(self):
        bits = BitArray(1000)
        for index in range(0, 1000, 3):
            bits.set_bit(index)
        assert bits.ones == len(range(0, 1000, 3))
        assert bits.ones == bits.recount()

    def test_zero_fraction(self):
        bits = BitArray(10)
        for index in range(5):
            bits.set_bit(index)
        assert bits.zero_fraction == pytest.approx(0.5)

    def test_clear(self):
        bits = BitArray(50)
        for index in range(25):
            bits.set_bit(index)
        bits.clear()
        assert bits.ones == 0
        assert bits.recount() == 0

    def test_memory_bits(self):
        assert BitArray(12345).memory_bits() == 12345


class TestBitArrayBulk:
    def test_set_bits_counts_unique_flips(self):
        bits = BitArray(64)
        flipped = bits.set_bits(np.array([1, 2, 2, 3, 1]))
        assert flipped == 3
        assert bits.ones == 3

    @pytest.mark.parametrize("size", [64, 65, 200, 1 << 12])
    def test_set_new_bits_matches_set_many(self, size):
        """Distinct bits that are zero leave the words and ``ones`` that
        ``set_many`` leaves, in any order, across several commits."""
        rng = np.random.default_rng(size)
        by_many, by_new = BitArray(size), BitArray(size)
        for _ in range(4):
            zero = np.flatnonzero(~by_many.to_numpy())
            fresh = rng.permutation(zero)[: rng.integers(0, zero.size + 1)]
            assert by_many.set_many(fresh) == fresh.size
            by_new.set_new_bits(fresh.astype(np.int64))
            assert by_new._words.tolist() == by_many._words.tolist()
            assert by_new.ones == by_many.ones == by_new.recount()

    def test_get_bits(self):
        bits = BitArray(128)
        for index in (5, 70, 127):
            bits.set_bit(index)
        values = bits.get_bits(np.array([5, 6, 70, 127, 0]))
        assert values.tolist() == [True, False, True, True, False]

    def test_get_bits_range_check(self):
        bits = BitArray(16)
        with pytest.raises(IndexError):
            bits.get_bits(np.array([0, 16]))

    @pytest.mark.parametrize("size", [64, 65, 200, 1 << 12])
    def test_byte_gather_matches_word_shift(self, size):
        rng = np.random.default_rng(size)
        bits = BitArray(size)
        bits.set_many(rng.integers(0, size, size=size // 2))
        bits.set_bit(size - 1)
        probes = np.array(
            [0, 63, 64, size - 1] + rng.integers(0, size, size=64).tolist(), dtype=np.int64
        )
        probes = probes[probes < size]
        words = bits._words[probes // 64]
        expected = ((words >> (probes % 64).astype(np.uint64)) & np.uint64(1)).astype(bool)
        assert bits.get_bits(probes).tolist() == expected.tolist()
        assert bits.get_bits(probes).tolist() == bits.to_numpy()[probes].tolist()
        for outside in (-1, size):  # the bounds check survives the byte gather
            with pytest.raises(IndexError):
                bits.get_bits(np.array([0, outside]))

    def test_to_numpy_roundtrip(self):
        bits = BitArray(70)
        indices = [0, 1, 63, 64, 69]
        for index in indices:
            bits.set_bit(index)
        dense = bits.to_numpy()
        assert dense.shape == (70,)
        assert sorted(np.nonzero(dense)[0].tolist()) == indices
