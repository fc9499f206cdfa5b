"""RevLib ``.real`` reader and writer.

The ``.real`` format is the interchange format of the RevLib benchmark suite
and of most reversible-logic tools (RevKit, ABC extensions, ...).  The subset
supported here covers everything the benchmark circuits in this repository
need:

* header directives ``.version``, ``.numvars``, ``.variables``, ``.inputs``,
  ``.outputs``, ``.constants``, ``.garbage`` (the last four are parsed and
  preserved but not semantically interpreted — the matching problem treats
  all lines alike);
* multiple-controlled Toffoli gates ``t<k>`` with optional negative controls
  written as a ``-`` prefix on the control variable;
* Fredkin/swap gates ``f<k>`` — ``f2`` maps to a plain swap, ``f3`` to a
  controlled swap expanded into MCT gates.

A variable name that itself starts with ``-`` can only be used negated,
written with one more ``-``: one leading ``-`` always negates.

Malformed input raises :class:`~repro.exceptions.ParseError`, naming the
line where there is one:

* neither ``.numvars`` nor ``.variables`` given, a ``.numvars`` value that is
  not a positive integer, a ``.variables`` list naming one variable twice,
  or a ``.numvars`` that disagrees with the length of ``.variables`` (when
  a header repeats, its last occurrence counts);
* a gate line outside ``.begin``/``.end``;
* a gate type other than ``t``/``f``, a mnemonic without a number, or an
  operand count other than the one the mnemonic names;
* a ``t`` gate with no operand, an ``f`` gate with fewer than two, or an
  ``f`` gate with more than one control;
* an operand naming no declared variable;
* a negated target, a negated swapped line, or a negative Fredkin control;
* a gate the gate classes reject — a control on the target line, one line
  controlling twice, or a swap of a line with itself (the
  :class:`~repro.exceptions.GateError` is chained).

Example::

    .version 2.0
    .numvars 3
    .variables a b c
    .begin
    t3 a b c
    t1 a
    f2 b c
    .end
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import Control, Gate, MCTGate, SwapGate, fredkin
from repro.exceptions import GateError, ParseError

__all__ = ["parse_real", "read_real", "write_real", "circuit_to_real"]


def parse_real(text: str, name: str | None = None) -> ReversibleCircuit:
    """Parse the contents of a ``.real`` file into a circuit.

    Args:
        text: the file contents.
        name: optional circuit name; defaults to the ``.version`` header or
            ``"real"``.

    Raises:
        ParseError: on any syntactic problem (unknown directives are ignored,
            unknown gate types are not); see the module docstring.
    """
    variables: list[str] = []
    variables_line = 0
    num_vars: int | None = None
    num_vars_line = 0
    in_body = False
    gate_lines: list[tuple[int, str]] = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            directive, _, rest = line.partition(" ")
            directive = directive.lower()
            rest = rest.strip()
            if directive == ".numvars":
                try:
                    num_vars = int(rest)
                except ValueError as error:
                    raise ParseError(
                        f"line {line_number}: invalid .numvars value {rest!r}"
                    ) from error
                num_vars_line = line_number
            elif directive == ".variables":
                variables = rest.split()
                variables_line = line_number
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
        gate_lines.append((line_number, line))

    # A header given twice counts by its last occurrence, so the checks run
    # once every header has been read.
    if num_vars is None:
        if not variables:
            raise ParseError("missing .numvars and .variables headers")
        num_vars = len(variables)
    elif num_vars < 1:
        raise ParseError(
            f"line {num_vars_line}: .numvars must be positive, got {num_vars}"
        )
    if not variables:
        variables = [f"x{index}" for index in range(num_vars)]
    if len(variables) != num_vars:
        raise ParseError(
            f".numvars says {num_vars} but .variables lists {len(variables)} names"
        )
    index_of = {variable: index for index, variable in enumerate(variables)}
    if len(index_of) != num_vars:
        duplicate = next(
            variable
            for index, variable in enumerate(variables)
            if index_of[variable] != index
        )
        raise ParseError(
            f"line {variables_line}: variable {duplicate!r} is declared twice"
        )

    table = _operand_table(index_of)
    circuit = ReversibleCircuit(num_vars, name=name or "real")
    for line_number, line in gate_lines:
        tokens = line.split()
        try:
            gates = _build_gates(tokens[0].lower(), tokens[1:], table, line_number)
        except GateError as error:
            raise ParseError(f"line {line_number}: {error}") from error
        circuit.extend(gates)
    return circuit


def _operand_table(index_of: dict[str, int]) -> dict[str, Control]:
    """Every operand token that names a variable, mapped to its control.

    One leading ``-`` negates: ``-a`` is variable ``a`` negated.  So a
    variable whose own name starts with ``-`` is reachable only negated,
    through a token with one more ``-``.
    """
    table = {
        "-" + variable: Control(index, False) for variable, index in index_of.items()
    }
    for variable, index in index_of.items():
        if not variable.startswith("-"):
            table[variable] = Control(index, True)
    return table


def _resolve(operand: str, table: dict[str, Control], line_number: int) -> Control:
    """The control an operand token names."""
    control = table.get(operand)
    if control is None:
        raise ParseError(
            f"line {line_number}: unknown variable {operand.removeprefix('-')!r}"
        )
    return control


def _build_gates(
    mnemonic: str,
    operands: Sequence[str],
    table: dict[str, Control],
    line_number: int,
) -> tuple[Gate, ...]:
    """The gates of one gate line (a Fredkin line expands to three)."""
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
        if arity < 1:
            raise ParseError(f"line {line_number}: t gates need at least 1 operand")
        *control_names, target_name = operands
        target = _resolve(target_name, table, line_number)
        if not target.positive:
            raise ParseError(f"line {line_number}: target cannot be negated")
        controls = tuple(_resolve(name, table, line_number) for name in control_names)
        return (MCTGate(controls, target.line),)

    # Fredkin family: the last two operands are swapped, the rest control.
    if arity < 2:
        raise ParseError(f"line {line_number}: f gates need at least 2 operands")
    *control_names, name_a, name_b = operands
    swapped_a = _resolve(name_a, table, line_number)
    swapped_b = _resolve(name_b, table, line_number)
    if not (swapped_a.positive and swapped_b.positive):
        raise ParseError(f"line {line_number}: swapped lines cannot be negated")
    if not control_names:
        return (SwapGate(swapped_a.line, swapped_b.line),)
    if len(control_names) == 1:
        control = _resolve(control_names[0], table, line_number)
        if not control.positive:
            raise ParseError(
                f"line {line_number}: negative Fredkin controls are unsupported"
            )
        return fredkin(control.line, swapped_a.line, swapped_b.line)
    raise ParseError(
        f"line {line_number}: Fredkin gates with more than one control are "
        "not supported"
    )


def read_real(path: str | os.PathLike) -> ReversibleCircuit:
    """Read a ``.real`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_real(text, name=name)


def circuit_to_real(circuit: ReversibleCircuit) -> str:
    """Serialise a circuit to ``.real`` text.

    Swap gates are written as ``f2`` gates; MCT gates as ``t<k>`` with ``-``
    prefixes marking negative controls.
    """
    variables = [f"x{index}" for index in range(circuit.num_lines)]
    lines = [
        "# written by repro.circuits.io.real",
        ".version 2.0",
        f".numvars {circuit.num_lines}",
        ".variables " + " ".join(variables),
        ".inputs " + " ".join(variables),
        ".outputs " + " ".join(variables),
        ".constants " + "-" * circuit.num_lines,
        ".garbage " + "-" * circuit.num_lines,
        ".begin",
    ]
    for gate in circuit:
        if isinstance(gate, SwapGate):
            lines.append(f"f2 {variables[gate.line_a]} {variables[gate.line_b]}")
        elif isinstance(gate, MCTGate):
            operands = [
                ("" if control.positive else "-") + variables[control.line]
                for control in gate.controls
            ]
            operands.append(variables[gate.target])
            lines.append(f"t{len(operands)} " + " ".join(operands))
        else:  # pragma: no cover - defensive: only reachable with custom gates
            raise ParseError(f"cannot serialise gate {gate!r} to .real")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_real(circuit: ReversibleCircuit, path: str | os.PathLike) -> None:
    """Write a circuit to a ``.real`` file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(circuit_to_real(circuit))
