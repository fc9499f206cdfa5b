"""Property-based tests for the quantum substrate."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import not_gate
from repro.circuits.random import random_circuit
from repro.quantum.apply import apply_circuit
from repro.quantum.statevector import MINUS, ONE, PLUS, ZERO, product_state
from repro.quantum.swap_test import swap_test_probability

LABELS = [ZERO, ONE, PLUS, MINUS]

label_lists = st.lists(st.sampled_from(LABELS), min_size=1, max_size=4)


@st.composite
def circuits_and_states(draw):
    labels = draw(label_lists)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    circuit = random_circuit(len(labels), 3 * len(labels), random.Random(seed))
    return circuit, product_state(labels)


class TestStateInvariants:
    @given(label_lists)
    @settings(max_examples=60, deadline=None)
    def test_product_states_are_normalised(self, labels):
        assert product_state(labels).is_normalized()

    @given(label_lists, label_lists)
    @settings(max_examples=60, deadline=None)
    def test_swap_test_probability_range(self, labels_a, labels_b):
        if len(labels_a) != len(labels_b):
            return
        probability = swap_test_probability(
            product_state(labels_a), product_state(labels_b)
        )
        assert 0.5 - 1e-9 <= probability <= 1.0 + 1e-9

    @given(label_lists)
    @settings(max_examples=40, deadline=None)
    def test_swap_test_of_identical_states_is_one(self, labels):
        state = product_state(labels)
        assert abs(swap_test_probability(state, state) - 1.0) < 1e-9


class TestCircuitActionInvariants:
    @given(circuits_and_states())
    @settings(max_examples=50, deadline=None)
    def test_applying_a_circuit_preserves_the_norm(self, pair):
        circuit, state = pair
        assert apply_circuit(circuit, state).is_normalized()

    @given(circuits_and_states(), circuits_and_states())
    @settings(max_examples=40, deadline=None)
    def test_unitarity_preserves_inner_products(self, pair_a, pair_b):
        circuit, state_a = pair_a
        _, state_b = pair_b
        if state_a.num_qubits != state_b.num_qubits:
            return
        before = abs(state_a.inner_product(state_b))
        after = abs(
            apply_circuit(circuit, state_a).inner_product(
                apply_circuit(circuit, state_b)
            )
        )
        assert abs(before - after) < 1e-9

    @given(label_lists, st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_x_on_plus_or_minus_changes_nothing_observable(self, labels, qubit):
        """The key fact behind Algorithm 1: X acts trivially on |+>, and on
        |-> only up to global phase."""
        if qubit >= len(labels):
            return
        if labels[qubit] not in (PLUS, MINUS):
            return
        state = product_state(labels)
        flipped = apply_circuit(
            ReversibleCircuit(len(labels), [not_gate(qubit)]), state
        )
        assert abs(abs(state.inner_product(flipped)) - 1.0) < 1e-9
