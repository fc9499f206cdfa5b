"""Unit tests for the RevLib .real reader/writer."""

from __future__ import annotations

import pytest

from repro.circuits.gates import Control, MCTGate, SwapGate
from repro.circuits.io.real import circuit_to_real, parse_real, read_real, write_real
from repro.circuits.random import random_circuit
from repro.exceptions import GateError, ParseError

EXAMPLE = """
# toffoli example
.version 2.0
.numvars 3
.variables a b c
.inputs a b c
.outputs a b c
.constants ---
.garbage ---
.begin
t3 a b c
t1 a
t2 -a b
f2 b c
.end
"""


class TestParsing:
    def test_parse_example(self):
        circuit = parse_real(EXAMPLE)
        assert circuit.num_lines == 3
        assert circuit.num_gates == 4
        assert isinstance(circuit.gates[0], MCTGate)
        assert circuit.gates[0].num_controls == 2
        assert isinstance(circuit.gates[3], SwapGate)

    def test_negative_control_parsed(self):
        circuit = parse_real(EXAMPLE)
        gate = circuit.gates[2]
        control = gate.controls[0]
        assert control.line == 0
        assert not control.positive

    def test_variables_inferred_from_numvars(self):
        circuit = parse_real(".numvars 2\n.begin\nt1 x1\n.end\n")
        assert circuit.num_lines == 2

    def test_numvars_inferred_from_variables(self):
        circuit = parse_real(".variables p q r\n.begin\nt1 r\n.end\n")
        assert circuit.num_lines == 3

    def test_missing_headers_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".begin\nt1 a\n.end\n")

    def test_gate_outside_body_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 1\nt1 x0\n")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 1\n.variables a\n.begin\nt1 z\n.end\n")

    def test_unknown_gate_type_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 1\n.variables a\n.begin\nq1 a\n.end\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 2\n.variables a b\n.begin\nt3 a b\n.end\n")

    def test_numvars_variables_conflict_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 3\n.variables a b\n.begin\n.end\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            (".numvars 1\n.begin\nt0\n.end\n", 3),
            (".numvars 2\n.variables a a\n.begin\nt1 a\n.end\n", 2),
            (".version 2.0\n.numvars 0\n.begin\n.end\n", 2),
            (".numvars -1\n.begin\n.end\n", 1),
        ],
        ids=["bare-t0", "duplicate-variable", "numvars-0", "numvars-negative"],
    )
    def test_malformed_input_names_its_line(self, text, line):
        with pytest.raises(ParseError, match=rf"^line {line}: "):
            parse_real(text)

    @pytest.mark.parametrize(
        "gate_line",
        ["t2 a a", "t3 a a b", "f2 a a", "f3 a b b", "f3 a a b"],
    )
    def test_gate_rejected_by_gate_classes_names_its_line(self, gate_line):
        text = f".numvars 2\n.variables a b\n.begin\nt1 a\n{gate_line}\n.end\n"
        with pytest.raises(ParseError, match=r"^line 5: ") as excinfo:
            parse_real(text)
        assert isinstance(excinfo.value.__cause__, GateError)

    def test_tab_separated_headers(self):
        text = ".numvars\t2\n.variables\ta\tb\n.begin\nt2\ta\tb\n.end\n"
        circuit = parse_real(text)
        assert circuit.num_lines == 2
        assert circuit.gates == (MCTGate((Control(0),), 1),)

    def test_repeated_header_counts_its_last_occurrence(self):
        circuit = parse_real(
            ".numvars 0\n.numvars 2\n.variables a a\n.variables a b\n"
            ".begin\nt2 a b\n.end\n"
        )
        assert circuit.num_lines == 2

    def test_dash_named_variable_is_reachable_only_negated(self):
        text = ".variables a -b\n.begin\nt2 --b a\n.end\n"
        (gate,) = parse_real(text).gates
        assert gate.controls == (Control(1, False),)
        with pytest.raises(ParseError, match="unknown variable 'b'"):
            parse_real(".variables a -b\n.begin\nt2 -b a\n.end\n")

    def test_controlled_fredkin_expanded(self):
        circuit = parse_real(
            ".numvars 3\n.variables a b c\n.begin\nf3 a b c\n.end\n"
        )
        # Controlled swap: control a, swap b and c.
        assert circuit.simulate(0b011) == 0b101
        assert circuit.simulate(0b010) == 0b010


class TestRoundTrip:
    def test_serialise_parse_roundtrip(self, rng):
        for _ in range(5):
            circuit = random_circuit(5, 15, rng)
            restored = parse_real(circuit_to_real(circuit))
            assert restored.functionally_equal(circuit)

    def test_swap_survives_roundtrip(self):
        from repro.circuits.circuit import ReversibleCircuit

        circuit = ReversibleCircuit(3, [SwapGate(0, 2)])
        restored = parse_real(circuit_to_real(circuit))
        assert restored.functionally_equal(circuit)

    def test_file_roundtrip(self, tmp_path, rng):
        circuit = random_circuit(4, 10, rng)
        path = tmp_path / "example.real"
        write_real(circuit, path)
        restored = read_real(path)
        assert restored.functionally_equal(circuit)
        assert restored.name == "example"
