"""Reference ``.real`` parser: the per-gate loop the table-driven one must match.

``repro.circuits.io.real.parse_real`` resolves operands through a per-file
token table and lowers gate lines straight to ops.  Neither may change a
parsed circuit, so the parser differential
(``tests/properties/test_parse_differential.py``) compares it against the
plain parser kept here: one ``_resolve`` and one new ``Control`` per
operand, one ``circuit.append`` per gate.  This is the library's parser as
it was before the table, malformed-input gaps included, changed only to
split a header directive from its value on any whitespace (a tab after
``.numvars`` used to drop the header, in both parsers): it
lets a bare ``t0`` line escape as a ``ValueError``, ``.numvars 0`` as a
``CircuitError`` and a gate the gate classes reject as a ``GateError``,
and it accepts a ``.variables`` header that names one variable twice.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import Control, MCTGate, SwapGate, fredkin
from repro.exceptions import ParseError


def parse_real(text: str, name: str | None = None) -> ReversibleCircuit:
    """Parse the contents of a ``.real`` file into a circuit.

    Args:
        text: the file contents.
        name: optional circuit name; defaults to the ``.version`` header or
            ``"real"``.

    Raises:
        ParseError: on any syntactic problem (unknown directives are ignored,
            unknown gate types are not).
    """
    variables: list[str] = []
    num_vars: int | None = None
    circuit: ReversibleCircuit | None = None
    in_body = False
    gates = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            directive, *rest = line.split(None, 1)
            directive = directive.lower()
            rest = rest[0] if rest else ""
            if directive == ".numvars":
                try:
                    num_vars = int(rest)
                except ValueError as error:
                    raise ParseError(
                        f"line {line_number}: invalid .numvars value {rest!r}"
                    ) from error
            elif directive == ".variables":
                variables = rest.split()
            elif directive == ".begin":
                in_body = True
            elif directive == ".end":
                in_body = False
            # .version, .inputs, .outputs, .constants, .garbage and any other
            # directive are accepted and ignored: they do not affect matching.
            continue
        if not in_body:
            raise ParseError(
                f"line {line_number}: gate line {line!r} outside .begin/.end"
            )
        gates.append((line_number, line))

    if num_vars is None:
        if not variables:
            raise ParseError("missing .numvars and .variables headers")
        num_vars = len(variables)
    if not variables:
        variables = [f"x{index}" for index in range(num_vars)]
    if len(variables) != num_vars:
        raise ParseError(
            f".numvars says {num_vars} but .variables lists {len(variables)} names"
        )

    index_of = {variable: index for index, variable in enumerate(variables)}
    circuit = ReversibleCircuit(num_vars, name=name or "real")

    for line_number, line in gates:
        tokens = line.split()
        mnemonic, operands = tokens[0].lower(), tokens[1:]
        _append_gate(circuit, mnemonic, operands, index_of, line_number)
    return circuit


def _resolve(
    operand: str, index_of: dict[str, int], line_number: int
) -> tuple[int, bool]:
    """Resolve an operand name to (line index, positive polarity)."""
    positive = True
    if operand.startswith("-"):
        positive = False
        operand = operand[1:]
    if operand not in index_of:
        raise ParseError(f"line {line_number}: unknown variable {operand!r}")
    return index_of[operand], positive


def _append_gate(
    circuit: ReversibleCircuit,
    mnemonic: str,
    operands: Sequence[str],
    index_of: dict[str, int],
    line_number: int,
) -> None:
    if not mnemonic or mnemonic[0] not in "tf":
        raise ParseError(f"line {line_number}: unsupported gate type {mnemonic!r}")
    try:
        arity = int(mnemonic[1:])
    except ValueError as error:
        raise ParseError(
            f"line {line_number}: malformed gate mnemonic {mnemonic!r}"
        ) from error
    if len(operands) != arity:
        raise ParseError(
            f"line {line_number}: gate {mnemonic} expects {arity} operands, "
            f"got {len(operands)}"
        )

    if mnemonic[0] == "t":
        *control_names, target_name = operands
        target, target_positive = _resolve(target_name, index_of, line_number)
        if not target_positive:
            raise ParseError(f"line {line_number}: target cannot be negated")
        controls = tuple(
            Control(*_resolve(operand, index_of, line_number))
            for operand in control_names
        )
        circuit.append(MCTGate(controls, target))
        return

    # Fredkin family: the last two operands are swapped, the rest control.
    if arity < 2:
        raise ParseError(f"line {line_number}: f gates need at least 2 operands")
    *control_names, name_a, name_b = operands
    line_a, positive_a = _resolve(name_a, index_of, line_number)
    line_b, positive_b = _resolve(name_b, index_of, line_number)
    if not (positive_a and positive_b):
        raise ParseError(f"line {line_number}: swapped lines cannot be negated")
    if not control_names:
        circuit.append(SwapGate(line_a, line_b))
        return
    if len(control_names) == 1:
        control, positive = _resolve(control_names[0], index_of, line_number)
        if not positive:
            raise ParseError(
                f"line {line_number}: negative Fredkin controls are unsupported"
            )
        circuit.extend(fredkin(control, line_a, line_b))
        return
    raise ParseError(
        f"line {line_number}: Fredkin gates with more than one control are "
        "not supported"
    )
