"""Negation and permutation transform circuits (``C_nu`` and ``C_pi``).

The matching problem (Problem 1 of the paper) is stated in terms of two
transform circuits:

* ``C_nu`` — a layer of NOT gates described by a negation function
  ``nu : lines -> {0, 1}``; it maps ``x`` to ``x XOR mask(nu)``.
* ``C_pi`` — a rewiring of the lines described by a line permutation
  ``pi``; it maps ``x`` so that output line ``pi(i)`` carries input line
  ``i``.

An "X-Y equivalence" then asserts ``C1 = T_Y C2 T_X`` in operator notation,
where each side transform is ``T = C_pi C_nu`` (negation applied first, then
permutation) restricted to the components its class allows.  This module
builds those transforms as circuits and applies them to existing circuits
to construct promised-equivalent instances for experiments.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import SwapGate, not_gate
from repro.circuits.line_permutation import LinePermutation
from repro.exceptions import CircuitError

__all__ = [
    "negation_circuit",
    "permutation_circuit",
    "apply_input_negation",
    "transformed_circuit",
]


def _coerce_negation(nu: Sequence[bool | int], num_lines: int) -> list[bool]:
    values = [bool(value) for value in nu]
    if len(values) != num_lines:
        raise CircuitError(
            f"negation function has {len(values)} entries for a "
            f"{num_lines}-line circuit"
        )
    return values


def _coerce_permutation(
    pi: LinePermutation | Sequence[int], num_lines: int
) -> LinePermutation:
    if not isinstance(pi, LinePermutation):
        pi = LinePermutation(pi)
    if pi.num_lines != num_lines:
        raise CircuitError(
            f"line permutation has {pi.num_lines} lines, circuit has {num_lines}"
        )
    return pi


def negation_circuit(nu: Sequence[bool | int]) -> ReversibleCircuit:
    """The circuit ``C_nu``: one NOT gate per negated line."""
    nu = [bool(value) for value in nu]
    circuit = ReversibleCircuit(len(nu), name="C_nu")
    for line, flag in enumerate(nu):
        if flag:
            circuit.append(not_gate(line))
    return circuit


def permutation_circuit(pi: LinePermutation | Sequence[int]) -> ReversibleCircuit:
    """The circuit ``C_pi``: swap gates realising the line permutation ``pi``.

    The swaps are derived from the cycle decomposition of ``pi``; a cycle of
    length ``L`` costs ``L - 1`` swaps, so the circuit has at most ``n - 1``
    gates.
    """
    if not isinstance(pi, LinePermutation):
        pi = LinePermutation(pi)
    circuit = ReversibleCircuit(pi.num_lines, name="C_pi")
    # Realise pi by swapping along each cycle.  Swapping the cycle head with
    # each successive element moves every element one step forward along the
    # cycle, which is exactly what "line i goes to line pi(i)" requires.
    for cycle in pi.cycles():
        for index in range(1, len(cycle)):
            circuit.append(SwapGate(cycle[0], cycle[index]))
    return circuit


# ---------------------------------------------------------------------------
# Applying transforms to circuits
# ---------------------------------------------------------------------------
def apply_input_negation(
    circuit: ReversibleCircuit, nu: Sequence[bool | int]
) -> ReversibleCircuit:
    """Build the circuit ``circuit . C_nu`` (negation applied to the inputs)."""
    nu = _coerce_negation(nu, circuit.num_lines)
    return negation_circuit(nu).then(circuit)


def transformed_circuit(
    circuit: ReversibleCircuit,

    nu_x: Sequence[bool | int] | None = None,
    pi_x: LinePermutation | Sequence[int] | None = None,
    nu_y: Sequence[bool | int] | None = None,
    pi_y: LinePermutation | Sequence[int] | None = None,
) -> ReversibleCircuit:
    """Build ``C1 = T_Y circuit T_X`` with ``T = C_pi C_nu`` on each side.

    This is the canonical way to manufacture a circuit that is promised to
    be X-Y equivalent to ``circuit`` with known witnesses: supply only the
    components the class X-Y allows and leave the rest ``None``.

    The drawing order of the produced cascade is::

        [C_nu_x] [C_pi_x] [circuit] [C_nu_y] [C_pi_y]
    """
    result = ReversibleCircuit(circuit.num_lines, name="C1")
    if nu_x is not None:
        result.extend(negation_circuit(_coerce_negation(nu_x, circuit.num_lines)))
    if pi_x is not None:
        result.extend(
            permutation_circuit(_coerce_permutation(pi_x, circuit.num_lines))
        )
    result.extend(circuit.gates)
    if nu_y is not None:
        result.extend(negation_circuit(_coerce_negation(nu_y, circuit.num_lines)))
    if pi_y is not None:
        result.extend(
            permutation_circuit(_coerce_permutation(pi_y, circuit.num_lines))
        )
    return result
