"""Minimal OpenQASM 2.0 export/import for reversible circuits.

Oracle circuits destined for quantum toolchains (Qiskit, tket, ...) are most
conveniently exchanged as OpenQASM.  Reversible circuits only need the
classical-permutation gate set, so the dialect handled here is deliberately
small:

* ``x q[i];`` — NOT
* ``cx q[a], q[b];`` — CNOT (positive control)
* ``ccx q[a], q[b], q[c];`` — Toffoli (positive controls)
* ``swap q[a], q[b];`` — swap
* larger or negatively controlled MCT gates are exported by surrounding the
  positive-control core with explicit ``x`` gates and decomposing the control
  count down to ``ccx``/``cx`` is *not* attempted — instead they are emitted
  as a ``// mct`` comment plus the polarity-adjusting ``x`` gates and a
  ``ccx``-expressible core when possible; on import such comments round-trip.

The exporter guarantees ``qasm_to_circuit(circuit_to_qasm(c))`` is
functionally identical to ``c`` for every circuit this package produces.
"""

from __future__ import annotations

import re

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import Control, MCTGate, SwapGate
from repro.exceptions import CircuitError, ParseError

__all__ = ["circuit_to_qasm", "qasm_to_circuit"]

_QUBIT = re.compile(r"q\[(\d+)\]")


def _emit_mct(gate: MCTGate, lines: list[str]) -> None:
    """Emit an MCT gate, wrapping negative controls in X conjugation."""
    negative = [control.line for control in gate.controls if not control.positive]
    for line in negative:
        lines.append(f"x q[{line}];")
    controls = sorted(control.line for control in gate.controls)
    operands = ", ".join(f"q[{line}]" for line in controls + [gate.target])
    if len(controls) == 0:
        lines.append(f"x q[{gate.target}];")
    elif len(controls) == 1:
        lines.append(f"cx {operands};")
    elif len(controls) == 2:
        lines.append(f"ccx {operands};")
    else:
        # OpenQASM 2.0 has no native multi-controlled X; emit the extended
        # "mcx" mnemonic (accepted by our importer and by Qiskit >= 0.45 via
        # its own parser extensions) so the file stays loss-free.
        lines.append(f"mcx {operands};")
    for line in negative:
        lines.append(f"x q[{line}];")


def circuit_to_qasm(circuit: ReversibleCircuit) -> str:
    """Serialise ``circuit`` to OpenQASM 2.0 text."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_lines}];",
    ]
    for gate in circuit:
        if isinstance(gate, SwapGate):
            lines.append(f"swap q[{gate.line_a}], q[{gate.line_b}];")
        elif isinstance(gate, MCTGate):
            _emit_mct(gate, lines)
        else:  # pragma: no cover - defensive: only reachable with custom gates
            raise ParseError(f"cannot serialise gate {gate!r} to OpenQASM")
    return "\n".join(lines) + "\n"


def qasm_to_circuit(text: str, name: str | None = None) -> ReversibleCircuit:
    """Parse the OpenQASM dialect produced by :func:`circuit_to_qasm`.

    Raises:
        ParseError: on malformed or unsupported input, naming the line; a
            register or gate the circuit classes reject has their
            :class:`~repro.exceptions.CircuitError` chained.
    """
    num_qubits: int | None = None
    qreg_line = 0
    body: list[tuple[int, str, list[int]]] = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if not line.endswith(";"):
            raise ParseError(f"line {line_number}: missing semicolon in {line!r}")
        line = line[:-1].strip()
        if line.startswith("qreg"):
            match = _QUBIT.search(line)
            if not match:
                raise ParseError(f"line {line_number}: malformed qreg declaration")
            num_qubits = int(match.group(1))
            qreg_line = line_number
            continue
        mnemonic, _, operand_text = line.partition(" ")
        qubits = [int(index) for index in _QUBIT.findall(operand_text)]
        body.append((line_number, mnemonic.lower(), qubits))

    if num_qubits is None:
        raise ParseError("missing qreg declaration")

    line_number = qreg_line  # what a CircuitError names before any gate
    try:
        circuit = ReversibleCircuit(num_qubits, name=name or "qasm")
        for line_number, mnemonic, qubits in body:
            if mnemonic == "x" and len(qubits) == 1:
                circuit.append(MCTGate((), qubits[0]))
            elif mnemonic == "cx" and len(qubits) == 2:
                circuit.append(MCTGate((Control(qubits[0]),), qubits[1]))
            elif mnemonic == "ccx" and len(qubits) == 3:
                circuit.append(
                    MCTGate((Control(qubits[0]), Control(qubits[1])), qubits[2])
                )
            elif mnemonic == "mcx" and len(qubits) >= 2:
                controls = tuple(Control(qubit) for qubit in qubits[:-1])
                circuit.append(MCTGate(controls, qubits[-1]))
            elif mnemonic == "swap" and len(qubits) == 2:
                circuit.append(SwapGate(qubits[0], qubits[1]))
            else:
                raise ParseError(
                    f"line {line_number}: unsupported OpenQASM statement "
                    f"{mnemonic!r} with {len(qubits)} operands"
                )
    except CircuitError as error:
        raise ParseError(f"line {line_number}: {error}") from error
    return circuit
