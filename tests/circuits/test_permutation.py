"""Unit tests for repro.circuits.permutation."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import not_gate
from repro.circuits.permutation import Permutation
from repro.circuits.random import random_permutation
from repro.exceptions import PermutationError


class TestConstruction:
    def test_identity(self):
        identity = Permutation.identity(3)
        assert identity.is_identity()
        assert identity.size == 8

    def test_rejects_non_permutation(self):
        with pytest.raises(PermutationError):
            Permutation([0, 0, 1, 2])

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(PermutationError):
            Permutation([0, 1, 2])

    def test_from_circuit(self):
        circuit = ReversibleCircuit(2, [not_gate(0)])
        permutation = Permutation.from_circuit(circuit)
        assert list(permutation.mapping) == [1, 0, 3, 2]

    def test_from_function(self):
        permutation = Permutation.from_function(lambda x: x ^ 0b11, 2)
        assert permutation(0) == 3
        assert permutation(3) == 0


class TestAlgebra:
    def test_inverse(self, rng):
        permutation = random_permutation(4, rng)
        inverse = permutation.inverse()
        for value in range(16):
            assert inverse(permutation(value)) == value

    def test_compose_order(self):
        shift = Permutation.from_function(lambda x: (x + 1) % 8, 3)
        double_shift = shift.compose(shift)
        assert double_shift(0) == 2

    def test_matmul_matches_compose(self, rng):
        p = random_permutation(3, rng)
        q = random_permutation(3, rng)
        assert (p @ q) == p.compose(q)

    def test_compose_size_mismatch(self):
        with pytest.raises(PermutationError):
            Permutation.identity(2).compose(Permutation.identity(3))


class TestAnalysis:
    def test_cycles_of_swap(self):
        permutation = Permutation([1, 0, 3, 2])
        assert sorted(permutation.cycles()) == [(0, 1), (2, 3)]

    def test_order(self):
        cycle3 = Permutation([1, 2, 0, 3])
        assert cycle3.order() == 3
        assert Permutation.identity(2).order() == 1

    def test_parity(self):
        transposition = Permutation([1, 0, 2, 3])
        assert transposition.parity() == 1
        assert Permutation.identity(2).parity() == 0

    def test_equality_and_hash(self):
        a = Permutation([1, 0, 3, 2])
        b = Permutation([1, 0, 3, 2])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Permutation.identity(2)
