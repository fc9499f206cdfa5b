"""Unit tests for repro.circuits.random."""

from __future__ import annotations

import random

from repro.circuits.gates import MCTGate
from repro.circuits.random import (
    coerce_rng,
    random_circuit,
    random_line_permutation,
    random_mct_gate,
    random_negation,
    random_permutation,
)


class TestCoerceRng:
    def test_none_gives_fresh_generator(self):
        assert isinstance(coerce_rng(None), random.Random)

    def test_int_seeds_deterministically(self):
        assert coerce_rng(5).random() == coerce_rng(5).random()

    def test_existing_generator_passes_through(self):
        rng = random.Random(1)
        assert coerce_rng(rng) is rng


class TestGenerators:
    def test_random_negation_shape(self, rng):
        nu = random_negation(6, rng)
        assert len(nu) == 6
        assert all(isinstance(value, bool) for value in nu)

    def test_random_line_permutation_is_valid(self, rng):
        pi = random_line_permutation(7, rng)
        assert sorted(pi.mapping) == list(range(7))

    def test_random_permutation_is_valid(self, rng):
        permutation = random_permutation(4, rng)
        assert sorted(permutation.mapping) == list(range(16))

    def test_seeded_runs_are_reproducible(self):
        a = random_circuit(5, 20, rng=99)
        b = random_circuit(5, 20, rng=99)
        assert a == b

    def test_random_mct_gate_respects_max_controls(self, rng):
        for _ in range(50):
            gate = random_mct_gate(6, rng, max_controls=2)
            assert gate.num_controls <= 2

    def test_random_mct_gate_positive_only(self, rng):
        for _ in range(50):
            gate = random_mct_gate(5, rng, allow_negative_controls=False)
            assert all(control.positive for control in gate.controls)

    def test_random_circuit_shape(self, rng):
        circuit = random_circuit(5, 17, rng)
        assert circuit.num_lines == 5
        assert circuit.num_gates == 17
        assert all(isinstance(gate, MCTGate) for gate in circuit)

    def test_random_circuit_is_reversible(self, rng):
        circuit = random_circuit(4, 25, rng)
        assert sorted(circuit.truth_table()) == list(range(16))
