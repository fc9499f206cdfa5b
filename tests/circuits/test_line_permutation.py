"""Unit tests for repro.circuits.line_permutation."""

from __future__ import annotations

import pytest

from repro.circuits.line_permutation import LinePermutation
from repro.exceptions import PermutationError


class TestConstruction:
    def test_identity(self):
        pi = LinePermutation.identity(4)
        assert pi.is_identity()
        assert pi.mapping == (0, 1, 2, 3)

    def test_rejects_non_permutation(self):
        with pytest.raises(PermutationError):
            LinePermutation([0, 0, 1])


class TestSemantics:
    def test_apply_to_vector_moves_bits(self):
        pi = LinePermutation([1, 2, 0])  # line0->line1, line1->line2, line2->line0
        assert pi.apply_to_vector(0b001) == 0b010
        assert pi.apply_to_vector(0b010) == 0b100
        assert pi.apply_to_vector(0b100) == 0b001

    def test_inverse_roundtrip(self):
        pi = LinePermutation([2, 0, 3, 1])
        inverse = pi.inverse()
        for value in range(16):
            assert inverse.apply_to_vector(pi.apply_to_vector(value)) == value

    def test_compose_order(self):
        first = LinePermutation([1, 0, 2])
        second = LinePermutation([0, 2, 1])
        composed = second.compose(first)
        # Line 0 goes to 1 under `first`, then 1 goes to 2 under `second`.
        assert composed[0] == 2

    def test_compose_size_mismatch(self):
        with pytest.raises(PermutationError):
            LinePermutation([0, 1]).compose(LinePermutation([0, 1, 2]))

    def test_cycles(self):
        pi = LinePermutation([1, 0, 3, 2])
        assert sorted(pi.cycles()) == [(0, 1), (2, 3)]

    def test_equality_with_sequences(self):
        pi = LinePermutation([2, 1, 0])
        assert pi == [2, 1, 0]
        assert pi == (2, 1, 0)
        assert pi == LinePermutation([2, 1, 0])
        assert pi != LinePermutation([0, 1, 2])
