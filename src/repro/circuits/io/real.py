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

Gate lines are lowered straight to the op table the evaluation kernels
read (:func:`~repro.circuits.bitslice.compile_gates`'s format), so a
parsed circuit builds no gate object until code asks for its gates.  A
well-formed ``t<k>`` or ``f2`` line becomes its op directly; every other
line — ``f3``, an unusual mnemonic such as ``t03``, and each malformed
one — goes through the gate classes and ``compile_gates``, so it keeps
their checks and their error text.

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
  :class:`~repro.exceptions.GateError` is still chained).

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

from repro.circuits.bitslice import OP_MCT, OP_SWAP, compile_gates
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

    # Each operand token that names a variable -> (line, bit, positive).
    # One leading "-" negates, so a variable whose own name starts with
    # "-" is reachable only negated, through a token with one more "-".
    table = {
        "-" + variable: (index, 1 << index, False)
        for variable, index in index_of.items()
    }
    for variable, index in index_of.items():
        if not variable.startswith("-"):
            table[variable] = (index, 1 << index, True)
    # Mnemonic -> (operand count, lowering) for the lines lowered directly.
    direct = {f"t{arity}": (arity, _mct_op) for arity in range(1, num_vars + 1)}
    direct["f2"] = (2, _swap_op)

    ops: list[tuple] = []
    for line_number, line in gate_lines:
        tokens = line.split()
        operands = tokens[1:]
        arity, lower = direct.get(tokens[0], (-1, None))
        op = lower(operands, table) if arity == len(operands) else None
        if op is not None:
            ops.append(op)
            continue
        try:
            lowered = compile_gates(
                _line_gates(tokens[0].lower(), operands, table, line_number)
            )
        except GateError as error:
            raise ParseError(f"line {line_number}: {error}") from error
        ops.extend(lowered)
    return ReversibleCircuit._from_ops(num_vars, tuple(ops), name or "real")


def _mct_op(operands: Sequence[str], table: dict) -> tuple | None:
    """The lowered op of a well-formed ``t<k>`` line, else ``None``.

    ``None`` sends the line to :func:`_line_gates`, which builds the gates
    the direct path skips: a negated target, an unknown variable, a
    control on the target line or one line controlling twice all end
    there, in the error the gate classes raise.
    """
    target = table.get(operands[-1])
    if target is None or not target[2]:
        return None
    taken = target[1]
    polarity = 0
    positive: list[int] = []
    negative: list[int] = []
    for index in range(len(operands) - 1):
        control = table.get(operands[index])
        if control is None or control[1] & taken:
            return None
        line, bit, is_positive = control
        taken |= bit
        if is_positive:
            polarity |= bit
            positive.append(line)
        else:
            negative.append(line)
    positive.sort()
    negative.sort()
    return (
        OP_MCT,
        tuple(positive),
        tuple(negative),
        target[0],
        taken ^ target[1],
        polarity,
    )


def _swap_op(operands: Sequence[str], table: dict) -> tuple | None:
    """The lowered op of a well-formed ``f2`` line, else ``None``."""
    a = table.get(operands[0])
    b = table.get(operands[1])
    if a is None or b is None or not (a[2] and b[2]) or a[0] == b[0]:
        return None
    return (OP_SWAP, min(a[0], b[0]), max(a[0], b[0]), None, 0, 0)


def _line_gates(
    mnemonic: str,
    operands: Sequence[str],
    table: dict,
    line_number: int,
) -> tuple[Gate, ...]:
    """The gates of a gate line not lowered directly (``f3`` expands to three)."""
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

    def resolve(operand: str) -> Control:
        entry = table.get(operand)
        if entry is None:
            raise ParseError(
                f"line {line_number}: unknown variable {operand.removeprefix('-')!r}"
            )
        return Control(entry[0], entry[2])

    if mnemonic[0] == "t":
        if arity < 1:
            raise ParseError(f"line {line_number}: t gates need at least 1 operand")
        *control_names, target_name = operands
        target = resolve(target_name)
        if not target.positive:
            raise ParseError(f"line {line_number}: target cannot be negated")
        controls = tuple(resolve(name) for name in control_names)
        return (MCTGate(controls, target.line),)

    # Fredkin family: the last two operands are swapped, the rest control.
    if arity < 2:
        raise ParseError(f"line {line_number}: f gates need at least 2 operands")
    *control_names, name_a, name_b = operands
    swapped_a = resolve(name_a)
    swapped_b = resolve(name_b)
    if not (swapped_a.positive and swapped_b.positive):
        raise ParseError(f"line {line_number}: swapped lines cannot be negated")
    if not control_names:
        return (SwapGate(swapped_a.line, swapped_b.line),)
    if len(control_names) == 1:
        control = resolve(control_names[0])
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
