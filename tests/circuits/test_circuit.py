"""Unit tests for repro.circuits.circuit."""

from __future__ import annotations

import pytest

from repro.circuits import bitslice
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.evaluate import tabulate
from repro.circuits.gates import SwapGate, cnot, not_gate, toffoli
from repro.circuits.random import random_circuit
from repro.exceptions import CircuitError
from repro.oracles import CircuitOracle


class TestConstruction:
    def test_empty_circuit_is_identity(self):
        circuit = ReversibleCircuit(3)
        assert circuit.is_identity()
        assert circuit.num_gates == 0

    def test_zero_lines_rejected(self):
        with pytest.raises(CircuitError):
            ReversibleCircuit(0)

    def test_gate_beyond_lines_rejected(self):
        circuit = ReversibleCircuit(2)
        with pytest.raises(CircuitError):
            circuit.append(not_gate(5))

    def test_append_returns_self_for_chaining(self):
        circuit = ReversibleCircuit(2)
        assert circuit.append(not_gate(0)) is circuit

    def test_extend_and_len(self):
        circuit = ReversibleCircuit(3, [not_gate(0)])
        circuit.extend([cnot(0, 1), toffoli(0, 1, 2)])
        assert len(circuit) == 3

    def test_copy_is_independent(self):
        circuit = ReversibleCircuit(2, [not_gate(0)])
        duplicate = circuit.copy()
        duplicate.append(not_gate(1))
        assert circuit.num_gates == 1
        assert duplicate.num_gates == 2

    def test_gate_counts(self):
        circuit = ReversibleCircuit(
            4, [not_gate(0), cnot(0, 1), toffoli(0, 1, 2), SwapGate(2, 3)]
        )
        assert circuit.gate_counts() == {
            "NOT": 1,
            "CNOT": 1,
            "TOFFOLI": 1,
            "SWAP": 1,
        }


class TestSimulation:
    def test_figure2_semantics(self, toffoli_circuit):
        # o2 = i2 XOR (i0 AND i1), other lines unchanged.
        assert toffoli_circuit.simulate(0b011) == 0b111
        assert toffoli_circuit.simulate(0b111) == 0b011
        assert toffoli_circuit.simulate(0b001) == 0b001

    def test_simulate_accepts_bit_list(self, toffoli_circuit):
        assert toffoli_circuit.simulate([1, 1, 0]) == 0b111

    def test_simulate_rejects_out_of_range(self, toffoli_circuit):
        with pytest.raises(CircuitError):
            toffoli_circuit.simulate(8)
        with pytest.raises(CircuitError):
            toffoli_circuit.simulate([1, 0])

    def test_truth_table_is_permutation(self, small_random_circuit):
        table = small_random_circuit.truth_table()
        assert sorted(table) == list(range(16))

    def test_functionally_equal_detects_difference(self):
        identity = ReversibleCircuit(2)
        flip = ReversibleCircuit(2, [not_gate(0)])
        assert not identity.functionally_equal(flip)
        assert identity.functionally_equal(ReversibleCircuit(2))

    def test_functionally_equal_different_widths(self):
        assert not ReversibleCircuit(2).functionally_equal(ReversibleCircuit(3))


class TestComposition:
    def test_inverse_roundtrip(self, small_random_circuit):
        composed = small_random_circuit.then(small_random_circuit.inverse())
        assert composed.is_identity()

    def test_then_order(self):
        first = ReversibleCircuit(2, [not_gate(0)])
        second = ReversibleCircuit(2, [cnot(0, 1)])
        combined = first.then(second)
        # NOT on line0 then CNOT(0->1): input 00 -> 01 -> 11.
        assert combined.simulate(0b00) == 0b11

    def test_matmul_is_operator_order(self):
        first = ReversibleCircuit(2, [not_gate(0)])
        second = ReversibleCircuit(2, [cnot(0, 1)])
        combined = second @ first  # apply first, then second
        assert combined.simulate(0b00) == 0b11

    def test_then_rejects_mismatched_widths(self):
        with pytest.raises(CircuitError):
            ReversibleCircuit(2).then(ReversibleCircuit(3))

    def test_remapped_relabels_lines(self, toffoli_circuit):
        remapped = toffoli_circuit.remapped([2, 1, 0])
        # Target is now line 0, controls on lines 1 and 2.
        assert remapped.simulate(0b110) == 0b111

    def test_remapped_rejects_non_permutation(self, toffoli_circuit):
        with pytest.raises(CircuitError):
            toffoli_circuit.remapped([0, 0, 1])


class TestDunder:
    def test_structural_equality_and_hash(self):
        a = ReversibleCircuit(2, [not_gate(0)])
        b = ReversibleCircuit(2, [not_gate(0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ReversibleCircuit(2, [not_gate(1)])

    def test_repr_and_str_mention_name(self):
        circuit = ReversibleCircuit(2, [not_gate(0)], name="demo")
        assert "demo" in repr(circuit)
        assert "demo" in str(circuit)

    def test_iteration_yields_gates(self, small_random_circuit):
        assert list(small_random_circuit) == list(small_random_circuit.gates)


class TestCompiledOps:
    def test_one_lowering_serves_every_reader(self, monkeypatch, rng):
        lowered = []
        compile_gates = bitslice.compile_gates

        def counting(gates):
            lowered.append(len(gates))
            return compile_gates(gates)

        monkeypatch.setattr(bitslice, "compile_gates", counting)
        circuit = random_circuit(5, 20, rng)
        values = list(range(32))
        first, second = CircuitOracle(circuit), CircuitOracle(circuit)
        assert first.evaluate_many(values) == tabulate(circuit).tolist()
        assert second.evaluate_many(values) == circuit.truth_table()
        assert lowered == [20]
