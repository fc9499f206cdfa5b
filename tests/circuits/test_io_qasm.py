"""Unit tests for the OpenQASM exporter/importer."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import SwapGate, mct, not_gate, toffoli
from repro.circuits.io.qasm import circuit_to_qasm, qasm_to_circuit
from repro.circuits.random import random_circuit
from repro.exceptions import CircuitError, GateError, ParseError


class TestExport:
    def test_header_and_register(self):
        text = circuit_to_qasm(ReversibleCircuit(3, [not_gate(0)]))
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[3];" in text
        assert "x q[0];" in text

    def test_toffoli_exported_as_ccx(self):
        text = circuit_to_qasm(ReversibleCircuit(3, [toffoli(0, 1, 2)]))
        assert "ccx q[0], q[1], q[2];" in text

    def test_negative_controls_wrapped_in_x(self):
        gate = mct([0, 1], 2, polarities=[False, True])
        text = circuit_to_qasm(ReversibleCircuit(3, [gate]))
        assert text.count("x q[0];") == 2

    def test_large_mct_uses_mcx(self):
        gate = mct([0, 1, 2], 3)
        text = circuit_to_qasm(ReversibleCircuit(4, [gate]))
        assert "mcx" in text


class TestImport:
    def test_missing_qreg_rejected(self):
        with pytest.raises(ParseError):
            qasm_to_circuit("OPENQASM 2.0;\nx q[0];")

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ParseError):
            qasm_to_circuit("OPENQASM 2.0;\nqreg q[1];\nx q[0]")

    def test_unsupported_statement_rejected(self):
        with pytest.raises(ParseError):
            qasm_to_circuit("OPENQASM 2.0;\nqreg q[1];\nh q[0];")

    def test_unsupported_statement_names_its_line(self):
        with pytest.raises(ParseError, match=r"^line 3: unsupported"):
            qasm_to_circuit("OPENQASM 2.0;\nqreg q[1];\nh q[0];")

    @pytest.mark.parametrize(
        "text, line, cause",
        [
            ("qreg q[2];\nx q[0];\ncx q[0], q[0];", 3, GateError),
            ("qreg q[2];\nswap q[1], q[1];", 2, GateError),
            ("OPENQASM 2.0;\nqreg q[2];\nx q[5];", 3, CircuitError),
            ("OPENQASM 2.0;\nqreg q[0];", 2, CircuitError),
        ],
        ids=["cx-on-itself", "swap-with-itself", "line-out-of-range", "empty-qreg"],
    )
    def test_rejected_circuit_names_its_line(self, text, line, cause):
        with pytest.raises(ParseError, match=rf"^line {line}: ") as excinfo:
            qasm_to_circuit(text)
        assert type(excinfo.value.__cause__) is cause

    def test_comments_ignored(self):
        circuit = qasm_to_circuit(
            "OPENQASM 2.0;\nqreg q[2];\n// a comment\ncx q[0], q[1];\n"
        )
        assert circuit.num_gates == 1


class TestRoundTrip:
    def test_random_circuits_roundtrip(self, rng):
        for _ in range(5):
            circuit = random_circuit(5, 15, rng)
            restored = qasm_to_circuit(circuit_to_qasm(circuit))
            assert restored.functionally_equal(circuit)

    def test_swap_roundtrip(self):
        circuit = ReversibleCircuit(4, [SwapGate(1, 3)])
        restored = qasm_to_circuit(circuit_to_qasm(circuit))
        assert restored.functionally_equal(circuit)
