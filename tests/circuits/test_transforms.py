"""Unit tests for repro.circuits.transforms (including the Fig. 4 identity)."""

from __future__ import annotations

import pytest

from repro.bits import bits_to_int, int_to_bits
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.line_permutation import LinePermutation
from repro.circuits.random import (
    random_circuit,
    random_line_permutation,
    random_negation,
)
from repro.circuits.transforms import (
    apply_input_negation,
    negation_circuit,
    permutation_circuit,
    transformed_circuit,
)
from repro.exceptions import CircuitError


class TestNegationCircuit:
    def test_negation_circuit_xors_mask(self):
        nu = [True, False, True, False]
        circuit = negation_circuit(nu)
        for value in range(16):
            assert circuit.simulate(value) == value ^ 0b0101

    def test_empty_negation_is_identity(self):
        assert negation_circuit([False, False]).is_identity()


class TestPermutationCircuit:
    def test_permutation_circuit_matches_line_permutation(self, rng):
        for _ in range(20):
            pi = random_line_permutation(5, rng)
            circuit = permutation_circuit(pi)
            for _ in range(10):
                value = rng.getrandbits(5)
                assert circuit.simulate(value) == pi.apply_to_vector(value)

    def test_identity_permutation_has_no_gates(self):
        assert permutation_circuit(LinePermutation.identity(4)).num_gates == 0

    def test_accepts_plain_sequences(self):
        circuit = permutation_circuit([1, 0])
        assert circuit.simulate(0b01) == 0b10


class TestApplyHelpers:
    def test_input_negation_semantics(self, small_random_circuit, rng):
        nu = random_negation(4, rng)
        mask = bits_to_int(nu)
        wrapped = apply_input_negation(small_random_circuit, nu)
        for value in range(16):
            assert wrapped.simulate(value) == small_random_circuit.simulate(value ^ mask)

    def test_size_mismatch_rejected(self, small_random_circuit):
        with pytest.raises(CircuitError):
            apply_input_negation(small_random_circuit, [True, False])
        with pytest.raises(CircuitError):
            transformed_circuit(small_random_circuit, pi_x=[0, 1, 2])
        with pytest.raises(CircuitError):
            transformed_circuit(small_random_circuit, nu_y=[True])


class TestTransformedCircuit:
    def test_all_sides_composed_in_canonical_order(self, rng):
        base = random_circuit(4, 12, rng)
        nu_x = random_negation(4, rng)
        pi_x = random_line_permutation(4, rng)
        nu_y = random_negation(4, rng)
        pi_y = random_line_permutation(4, rng)
        combined = transformed_circuit(base, nu_x=nu_x, pi_x=pi_x, nu_y=nu_y, pi_y=pi_y)
        mask_x = bits_to_int(nu_x)
        mask_y = bits_to_int(nu_y)
        for value in range(16):
            expected = pi_y.apply_to_vector(
                base.simulate(pi_x.apply_to_vector(value ^ mask_x)) ^ mask_y
            )
            assert combined.simulate(value) == expected

    def test_output_negation_semantics(self, small_random_circuit, rng):
        nu = random_negation(4, rng)
        mask = bits_to_int(nu)
        wrapped = transformed_circuit(small_random_circuit, nu_y=nu)
        for value in range(16):
            assert wrapped.simulate(value) == small_random_circuit.simulate(value) ^ mask

    def test_input_permutation_semantics(self, small_random_circuit, rng):
        pi = random_line_permutation(4, rng)
        wrapped = transformed_circuit(small_random_circuit, pi_x=pi)
        for value in range(16):
            assert wrapped.simulate(value) == small_random_circuit.simulate(
                pi.apply_to_vector(value)
            )

    def test_output_permutation_semantics(self, small_random_circuit, rng):
        pi = random_line_permutation(4, rng)
        wrapped = transformed_circuit(small_random_circuit, pi_y=pi)
        for value in range(16):
            assert wrapped.simulate(value) == pi.apply_to_vector(
                small_random_circuit.simulate(value)
            )

    def test_none_components_are_skipped(self, small_random_circuit):
        unchanged = transformed_circuit(small_random_circuit)
        assert unchanged.functionally_equal(small_random_circuit)


class TestFigure4Identity:
    """A negation commutes past a line permutation once the permutation moves it."""

    def test_negation_then_permutation(self, rng):
        for _ in range(25):
            nu = random_negation(5, rng)
            pi = random_line_permutation(5, rng)
            # C_pi C_nu == C_nu' C_pi with nu' = pi(nu).
            nu_prime = int_to_bits(pi.apply_to_vector(bits_to_int(nu)), 5)
            left = negation_circuit(nu).then(permutation_circuit(pi))
            right = permutation_circuit(pi).then(negation_circuit(nu_prime))
            assert left.functionally_equal(right)

    def test_permutation_then_negation(self, rng):
        for _ in range(25):
            nu = random_negation(5, rng)
            pi = random_line_permutation(5, rng)
            # C_nu C_pi == C_pi C_nu' with nu' = pi^-1(nu).
            nu_prime = int_to_bits(pi.inverse().apply_to_vector(bits_to_int(nu)), 5)
            left = permutation_circuit(pi).then(negation_circuit(nu))
            right = negation_circuit(nu_prime).then(permutation_circuit(pi))
            assert left.functionally_equal(right)

    def test_a_moved_negation_differs_from_the_unmoved_one(self):
        # One negated line that pi moves: leaving nu in place breaks the identity.
        nu = [True, False, False]
        pi = LinePermutation([1, 2, 0])
        left = negation_circuit(nu).then(permutation_circuit(pi))
        unmoved = permutation_circuit(pi).then(negation_circuit(nu))
        assert not left.functionally_equal(unmoved)
