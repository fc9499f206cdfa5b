"""Unit tests for the state-vector substrate."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from repro.exceptions import QuantumError
from repro.quantum.statevector import (
    MINUS,
    ONE,
    PLUS,
    ZERO,
    _SINGLE_QUBIT_AMPLITUDES,
    Statevector,
    basis_state,
    product_state,
)


class TestConstruction:
    def test_basis_state_amplitudes(self):
        state = basis_state(0b10, 2)
        assert state.vector[2] == 1.0
        assert np.count_nonzero(state.vector) == 1

    def test_basis_state_out_of_range(self):
        with pytest.raises(QuantumError):
            basis_state(4, 2)

    def test_unnormalised_rejected(self):
        with pytest.raises(QuantumError):
            Statevector([1.0, 1.0])

    def test_bad_length_rejected(self):
        with pytest.raises(QuantumError):
            Statevector([1.0, 0.0, 0.0])

    def test_product_state_plus(self):
        state = product_state([PLUS, PLUS])
        assert np.allclose(state.vector, np.full(4, 0.5))

    def test_product_state_minus_signs(self):
        state = product_state([MINUS])
        assert np.allclose(state.vector, [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_product_state_mixed_labels(self):
        state = product_state([ZERO, ONE])
        # qubit0 = |0>, qubit1 = |1> -> basis index 0b10.
        assert state.vector[2] == pytest.approx(1.0)

    def test_product_state_rejects_unknown_label(self):
        with pytest.raises(QuantumError):
            product_state(["0", "x"])

    def test_product_state_rejects_empty(self):
        with pytest.raises(QuantumError):
            product_state([])

    def test_empty_vector_rejected(self):
        with pytest.raises(QuantumError, match="at least one amplitude"):
            Statevector([])


class TestReadOnly:
    @pytest.mark.parametrize(
        "state",
        [product_state([PLUS, ZERO, MINUS]), basis_state(3, 2)],
        ids=["product_state", "basis_state"],
    )
    def test_prepared_states_are_read_only(self, state):
        assert state.read_only
        with pytest.raises(ValueError):
            state.vector[0] = 0.0

    def test_copy_and_caller_data_are_writable(self):
        assert not product_state([PLUS]).copy().read_only
        amplitudes = np.array([0.0, 1.0], dtype=complex)
        state = Statevector(amplitudes)
        assert not state.read_only
        assert amplitudes.flags.writeable


LABELS = (ZERO, ONE, PLUS, MINUS)


def kron_product_state(labels) -> np.ndarray:
    """Reference amplitudes: one ``np.kron`` per qubit, qubit 0 innermost."""
    vector = np.ones(1, dtype=complex)
    for label in labels:
        vector = np.kron(_SINGLE_QUBIT_AMPLITUDES[label], vector)
    return vector


class TestProductStateMatchesKron:
    """Swap-test draws read every amplitude, so equality is bitwise."""

    @pytest.mark.parametrize("num_qubits", range(1, 6))
    def test_every_label_tuple_up_to_five_qubits(self, num_qubits):
        for labels in itertools.product(LABELS, repeat=num_qubits):
            vector = product_state(labels).vector
            assert vector.dtype == np.complex128
            assert vector.tobytes() == kron_product_state(labels).tobytes(), labels

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_twelve_qubit_tuples(self, seed):
        rng = random.Random(f"product-state:12:{seed}")
        for _ in range(16):
            labels = [rng.choice(LABELS) for _ in range(12)]
            vector = product_state(labels).vector
            assert vector.tobytes() == kron_product_state(labels).tobytes(), (
                seed,
                labels,
            )


class TestAlgebra:
    def test_inner_product_orthogonal(self):
        assert product_state([ZERO]).inner_product(product_state([ONE])) == 0

    def test_inner_product_plus_zero(self):
        value = product_state([PLUS]).inner_product(product_state([ZERO]))
        assert value == pytest.approx(1 / math.sqrt(2))

    def test_inner_product_dimension_mismatch(self):
        with pytest.raises(QuantumError):
            product_state([ZERO]).inner_product(product_state([ZERO, ZERO]))

    def test_tensor_orders_qubits(self):
        joint = basis_state(1, 1).tensor(basis_state(0, 1))
        # first factor occupies qubit 0 -> joint basis index 0b01.
        assert joint.vector[1] == pytest.approx(1.0)
        assert joint.num_qubits == 2

    def test_probability_of_qubit(self):
        state = product_state([PLUS, ZERO])
        assert state.probability_of_qubit(0, 0) == pytest.approx(0.5)
        assert state.probability_of_qubit(1, 0) == pytest.approx(1.0)

    def test_probability_of_qubit_out_of_range(self):
        with pytest.raises(QuantumError):
            product_state([ZERO]).probability_of_qubit(3, 0)

    def test_probabilities_sum_to_one(self):
        state = product_state([PLUS, MINUS, PLUS])
        assert state.probabilities().sum() == pytest.approx(1.0)

    def test_equals_and_global_phase(self):
        state = product_state([PLUS, ZERO])
        phased = Statevector(-state.vector, validate=False)
        assert not state.equals(phased)
        assert abs(state.inner_product(phased)) == pytest.approx(1.0)

    def test_copy_is_independent(self):
        state = product_state([ZERO, ZERO])
        duplicate = state.copy()
        duplicate.vector[0] = 0.0
        assert state.vector[0] == pytest.approx(1.0)
