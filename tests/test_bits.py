"""Unit tests for the shared bit-vector helpers."""

from __future__ import annotations

import pytest

from repro.bits import (
    bits_to_int,
    int_to_bits,
    one_hot,
    parity,
    popcount,
)


class TestConversions:
    def test_bits_to_int_lsb_first(self):
        assert bits_to_int([1, 0, 1]) == 0b101
        assert bits_to_int([]) == 0
        assert bits_to_int([True, False]) == 1

    def test_bits_to_int_rejects_non_bits(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2])

    def test_int_to_bits(self):
        assert int_to_bits(0b101, 3) == [1, 0, 1]
        assert int_to_bits(0, 2) == [0, 0]

    def test_int_to_bits_width_check(self):
        with pytest.raises(ValueError):
            int_to_bits(8, 3)
        with pytest.raises(ValueError):
            int_to_bits(-1, 3)

    def test_roundtrip(self):
        for value in range(32):
            assert bits_to_int(int_to_bits(value, 5)) == value


class TestAggregates:
    def test_popcount_and_parity(self):
        assert popcount(0b1011) == 3
        assert parity(0b1011) == 1
        assert parity(0b1001) == 0

    def test_one_hot(self):
        assert one_hot(2, 4) == 0b0100
        with pytest.raises(ValueError):
            one_hot(4, 4)
