"""Unit tests for applying circuits and gates to state vectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.library import figure2_example
from repro.circuits.permutation import Permutation
from repro.circuits.random import random_circuit
from repro.exceptions import QuantumError
from repro.quantum.apply import (
    apply_circuit,
    apply_controlled_swap,
    apply_hadamard,
    apply_permutation,
)
from repro.quantum.statevector import PLUS, ZERO, basis_state, product_state


class TestPermutationAction:
    def test_apply_circuit_on_basis_state(self):
        circuit = figure2_example()
        state = apply_circuit(circuit, basis_state(0b011, 3))
        assert state.vector[0b111] == pytest.approx(1.0)

    def test_apply_circuit_matches_classical_simulation(self, rng):
        circuit = random_circuit(4, 20, rng)
        for value in range(16):
            state = apply_circuit(circuit, basis_state(value, 4))
            assert state.vector[circuit.simulate(value)] == pytest.approx(1.0)

    def test_apply_permutation_preserves_norm(self, rng):
        from repro.circuits.random import random_permutation

        permutation = random_permutation(3, rng)
        state = product_state([PLUS, ZERO, PLUS])
        transformed = apply_permutation(permutation, state)
        assert transformed.is_normalized()

    def test_apply_permutation_preserves_inner_product(self, rng):
        from repro.circuits.random import random_permutation

        permutation = random_permutation(3, rng)
        state_a = product_state([PLUS, ZERO, PLUS])
        state_b = product_state([ZERO, PLUS, PLUS])
        before = state_a.inner_product(state_b)
        after = apply_permutation(permutation, state_a).inner_product(
            apply_permutation(permutation, state_b)
        )
        assert after == pytest.approx(before)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(QuantumError):
            apply_circuit(figure2_example(), basis_state(0, 2))


class TestSingleQubitGates:
    def test_apply_hadamard_creates_plus(self):
        state = apply_hadamard(basis_state(0, 1), 0)
        assert np.allclose(state.vector, product_state([PLUS]).vector)

    def test_hadamard_is_involution(self):
        state = product_state([PLUS, ZERO, PLUS])
        assert apply_hadamard(apply_hadamard(state, 1), 1).equals(state)

    def test_qubit_out_of_range(self):
        with pytest.raises(QuantumError):
            apply_hadamard(basis_state(0, 2), 5)
        with pytest.raises(QuantumError):
            apply_hadamard(basis_state(0, 2), -1)


class TestControlledSwap:
    def test_swaps_when_control_set(self):
        state = apply_controlled_swap(basis_state(0b011, 3), 0, 1, 2)
        assert state.vector[0b101] == pytest.approx(1.0)

    def test_no_swap_when_control_clear(self):
        state = apply_controlled_swap(basis_state(0b010, 3), 0, 1, 2)
        assert state.vector[0b010] == pytest.approx(1.0)

    def test_distinct_qubits_required(self):
        with pytest.raises(QuantumError):
            apply_controlled_swap(basis_state(0, 3), 0, 1, 1)
