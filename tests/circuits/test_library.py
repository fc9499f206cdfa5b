"""Unit tests for the benchmark-function library."""

from __future__ import annotations

import pytest

from repro.bits import popcount
from repro.circuits import library
from repro.exceptions import CircuitError


class TestSmallCircuits:
    def test_figure2_example(self):
        circuit = library.figure2_example()
        assert circuit.num_lines == 3
        assert circuit.simulate(0b011) == 0b111

    def test_toffoli_chain_function(self):
        circuit = library.toffoli_chain(4)
        # Lines 0,1 set -> flips line 2; then lines 1,2 set -> flips line 3.
        assert circuit.simulate(0b0011) == 0b1111

    def test_toffoli_chain_needs_three_lines(self):
        with pytest.raises(CircuitError):
            library.toffoli_chain(2)

    def test_cnot_ladder(self):
        circuit = library.cnot_ladder(3)
        assert circuit.simulate(0b001) == 0b111

    def test_gray_code_and_inverse(self):
        forward = library.gray_code(5)
        backward = forward.inverse()
        for value in range(32):
            gray = forward.simulate(value)
            assert gray == value ^ (value >> 1)
            assert backward.simulate(gray) == value


class TestArithmetic:
    def test_increment_wraps_modulo(self):
        circuit = library.increment(4)
        for value in range(16):
            assert circuit.simulate(value) == (value + 1) % 16

    def test_ripple_adder_adds_in_place(self):
        adder = library.ripple_adder(3)
        for a in range(8):
            for b in range(8):
                output = adder.simulate(a | (b << 3))
                assert output & 0b111 == a
                assert output >> 3 == (a + b) % 8

    def test_ripple_adder_single_bit(self):
        adder = library.ripple_adder(1)
        assert adder.simulate(0b11) == 0b01  # 1 + 1 = 0 (mod 2), a preserved


class TestWirings:
    def test_bit_reversal(self):
        circuit = library.bit_reversal(4)
        assert circuit.simulate(0b0001) == 0b1000
        assert circuit.simulate(0b0110) == 0b0110

    def test_cyclic_line_shift(self):
        circuit = library.cyclic_line_shift(4, shift=1)
        assert circuit.simulate(0b0001) == 0b0010
        assert circuit.simulate(0b1000) == 0b0001


class TestHwbAndCatalogue:
    def test_hidden_weighted_bit_semantics(self):
        circuit = library.hidden_weighted_bit(4)
        for value in range(16):
            weight = popcount(value)
            rotated = ((value << weight) | (value >> (4 - weight))) & 0xF if weight % 4 else value
            assert circuit.simulate(value) == rotated

    def test_catalogue_entries_build_valid_circuits(self):
        for name, factory in library.catalogue(4).items():
            circuit = factory()
            assert circuit.num_lines == 4, name
            assert sorted(circuit.truth_table()) == list(range(16)), name

    def test_catalogue_scales_with_line_count(self):
        assert "adder" in library.catalogue(6)
        assert "adder" not in library.catalogue(5)
        assert "hwb" not in library.catalogue(9)
