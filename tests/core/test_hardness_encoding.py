"""Unit tests for the Fig. 5 encoding circuits."""

from __future__ import annotations

import itertools

import pytest

from repro.core.hardness.encoding import (
    clause_gates,
    comparison_circuit,
    formula_block,
    layout_for,
    unique_sat_encoding_circuit,
)
from repro.exceptions import CircuitError
from repro.sat.cnf import CNF, Clause
from repro.sat.generators import planted_unique_sat, random_cnf


def evaluate_phi_and_ancillas(formula, layout, circuit, x_bits, a_bits, b_bit, z_bit):
    """Helper: run the encoding circuit on a structured input assignment."""
    value = 0
    for index, bit in enumerate(x_bits):
        if bit:
            value |= 1 << layout.variable_lines[index]
    for index, bit in enumerate(a_bits):
        if bit:
            value |= 1 << layout.clause_lines[index]
    if b_bit:
        value |= 1 << layout.helper_line
    if z_bit:
        value |= 1 << layout.result_line
    return circuit.simulate(value), value


class TestClauseGates:
    def test_clause_value_xored_onto_ancilla(self):
        formula = CNF([[1, -2, 3]])
        layout = layout_for(formula)
        gates = clause_gates(formula.clauses[0], layout.clause_lines[0], layout)
        assert len(gates) == 2
        for x1, x2, x3 in itertools.product((0, 1), repeat=3):
            value = x1 | (x2 << 1) | (x3 << 2)
            for gate in gates:
                value = gate.apply(value)
            clause_true = bool(x1 or (not x2) or x3)
            assert (value >> layout.clause_lines[0]) & 1 == int(clause_true)
            # Variable lines untouched.
            assert value & 0b111 == x1 | (x2 << 1) | (x3 << 2)

    def test_empty_clause_rejected(self):
        formula = CNF([[1]])
        layout = layout_for(formula)
        with pytest.raises(CircuitError):
            clause_gates(Clause([]), layout.clause_lines[0], layout)


class TestFormulaBlock:
    def test_block_is_self_inverse(self, rng):
        formula = random_cnf(4, 5, 3, rng)
        layout = layout_for(formula)
        gates = formula_block(formula, layout)
        from repro.circuits.circuit import ReversibleCircuit

        block = ReversibleCircuit(layout.num_lines, gates)
        assert block.then(block).is_identity()

    def test_gate_count_is_2m(self, rng):
        formula = random_cnf(4, 6, 3, rng)
        layout = layout_for(formula)
        assert len(formula_block(formula, layout)) == 2 * 6


class TestEncodingCircuit:
    def test_gate_count_is_8m_plus_4(self, rng):
        formula = random_cnf(4, 5, 3, rng)
        circuit, _ = unique_sat_encoding_circuit(formula)
        assert circuit.num_gates == 8 * 5 + 4

    def test_rejects_trivial_formulas(self):
        with pytest.raises(CircuitError):
            unique_sat_encoding_circuit(CNF([], num_variables=2))

    def test_result_line_receives_phi_when_ancillas_zero(self, rng):
        formula = random_cnf(3, 4, 2, rng)
        circuit, layout = unique_sat_encoding_circuit(formula)
        for bits in itertools.product((0, 1), repeat=3):
            for b_bit in (0, 1):
                for z_bit in (0, 1):
                    output, value = evaluate_phi_and_ancillas(
                        formula, layout, circuit, bits, [0] * 4, b_bit, z_bit
                    )
                    phi = formula.evaluate({i + 1: bool(b) for i, b in enumerate(bits)})
                    assert (output >> layout.result_line) & 1 == (z_bit ^ int(phi))
                    # Every other line is restored.
                    mask = (1 << layout.result_line) - 1
                    assert output & mask == value & mask

    def test_result_line_unchanged_when_some_ancilla_set(self, rng):
        formula = random_cnf(3, 3, 2, rng)
        circuit, layout = unique_sat_encoding_circuit(formula)
        output, value = evaluate_phi_and_ancillas(
            formula, layout, circuit, [1, 0, 1], [1, 0, 0], 0, 0
        )
        assert (output >> layout.result_line) & 1 == 0
        mask = (1 << layout.result_line) - 1
        assert output & mask == value & mask

    def test_all_lines_except_result_restored_on_every_input(self, rng):
        formula = random_cnf(2, 2, 2, rng)
        circuit, layout = unique_sat_encoding_circuit(formula)
        mask = (1 << layout.result_line) - 1
        for value in range(1 << layout.num_lines):
            assert circuit.simulate(value) & mask == value & mask


class TestComparisonCircuit:
    def test_single_gate_semantics(self, rng):
        formula, model = planted_unique_sat(3, 4, rng=rng)
        layout = layout_for(formula)
        circuit = comparison_circuit(layout, positive_lines=layout.variable_lines)
        assert circuit.num_gates == 1
        # Fires exactly when every variable line is 1 and every clause line 0.
        all_ones = sum(1 << line for line in layout.variable_lines)
        assert (circuit.simulate(all_ones) >> layout.result_line) & 1 == 1
        assert (circuit.simulate(0) >> layout.result_line) & 1 == 0

    def test_overlapping_polarities_rejected(self, rng):
        formula = random_cnf(3, 3, 2, rng)
        layout = layout_for(formula)
        with pytest.raises(CircuitError):
            comparison_circuit(layout, positive_lines=[0], negative_lines=[0, 1])
