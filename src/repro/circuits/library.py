"""A library of benchmark reversible functions.

RevLib-style benchmark circuits are not shipped with this repository (no
network access), so the standard functions used throughout the paper's
experimental tradition are re-implemented here as generators.  Every
generator returns a :class:`~repro.circuits.circuit.ReversibleCircuit`;
functions that are easiest to define through their permutation (e.g. the
hidden-weighted-bit function) are synthesised on the fly with the
transformation-based synthesiser from :mod:`repro.synthesis`.

The :func:`catalogue` registry maps short names to generator callables and is
what the benchmark harness iterates over when it needs "a realistic mix of
circuits".
"""

from __future__ import annotations

from collections.abc import Callable

from repro.bits import popcount
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import Control, MCTGate, SwapGate, cnot, toffoli
from repro.circuits.permutation import Permutation
from repro.exceptions import CircuitError

__all__ = [
    "figure2_example",
    "toffoli_chain",
    "cnot_ladder",
    "gray_code",
    "increment",
    "ripple_adder",
    "multiplier",
    "parity_accumulator",
    "fredkin_stage",
    "bit_reversal",
    "cyclic_line_shift",
    "hidden_weighted_bit",
    "from_permutation",
    "catalogue",
]


def figure2_example() -> ReversibleCircuit:
    """The three-line example circuit of Fig. 2 (a single Toffoli gate).

    ``o0 = i0``, ``o1 = i1``, ``o2 = i2 XOR (i0 AND i1)``.
    """
    circuit = ReversibleCircuit(3, name="figure2")
    circuit.append(toffoli(0, 1, 2))
    return circuit


def toffoli_chain(num_lines: int) -> ReversibleCircuit:
    """A cascade of Toffoli gates marching down the lines.

    Gate ``i`` has controls on lines ``i`` and ``i + 1`` and target
    ``i + 2``; requires at least three lines.
    """
    if num_lines < 3:
        raise CircuitError("a Toffoli chain needs at least 3 lines")
    circuit = ReversibleCircuit(num_lines, name=f"toffoli_chain_{num_lines}")
    for line in range(num_lines - 2):
        circuit.append(toffoli(line, line + 1, line + 2))
    return circuit


def cnot_ladder(num_lines: int) -> ReversibleCircuit:
    """A ladder of CNOTs: line ``i`` controls line ``i + 1``."""
    if num_lines < 2:
        raise CircuitError("a CNOT ladder needs at least 2 lines")
    circuit = ReversibleCircuit(num_lines, name=f"cnot_ladder_{num_lines}")
    for line in range(num_lines - 1):
        circuit.append(cnot(line, line + 1))
    return circuit


def gray_code(num_lines: int) -> ReversibleCircuit:
    """The binary-to-Gray-code converter: ``out_i = in_i XOR in_{i+1}``."""
    if num_lines < 1:
        raise CircuitError("gray_code needs at least 1 line")
    circuit = ReversibleCircuit(num_lines, name=f"gray_{num_lines}")
    for line in range(num_lines - 1):
        circuit.append(cnot(line + 1, line))
    return circuit


def _increment_gates(lines: list[int], extra_controls: tuple[Control, ...] = ()):
    """Gates that add 1 to the register formed by ``lines`` (LSB first).

    Each produced MCT gate carries ``extra_controls`` in addition to the
    register's own carry controls, which turns the block into a controlled
    increment.
    """
    gates = []
    for position in range(len(lines) - 1, 0, -1):
        controls = tuple(Control(lines[lower]) for lower in range(position))
        gates.append(MCTGate(controls + extra_controls, lines[position]))
    gates.append(MCTGate(extra_controls, lines[0]))
    return gates


def increment(num_lines: int) -> ReversibleCircuit:
    """The modular increment ``x -> x + 1 (mod 2**n)``."""
    if num_lines < 1:
        raise CircuitError("increment needs at least 1 line")
    circuit = ReversibleCircuit(num_lines, name=f"increment_{num_lines}")
    circuit.extend(_increment_gates(list(range(num_lines))))
    return circuit


def ripple_adder(register_bits: int) -> ReversibleCircuit:
    """An in-place modular adder ``(a, b) -> (a, a + b mod 2**k)``.

    Lines ``0 .. k-1`` hold ``a`` (unchanged), lines ``k .. 2k-1`` hold ``b``
    which is overwritten by the sum.  The construction adds ``a_i * 2**i``
    to ``b`` with a controlled increment per bit of ``a``; it uses only MCT
    gates and no ancilla lines.
    """
    if register_bits < 1:
        raise CircuitError("ripple_adder needs registers of at least 1 bit")
    num_lines = 2 * register_bits
    circuit = ReversibleCircuit(num_lines, name=f"adder_{register_bits}")
    b_lines = list(range(register_bits, num_lines))
    for bit in range(register_bits):
        control = (Control(bit),)
        circuit.extend(_increment_gates(b_lines[bit:], control))
    return circuit


def multiplier(register_bits: int) -> ReversibleCircuit:
    """An accumulating multiplier ``(a, b, p) -> (a, b, p + a*b mod 2**(2k))``.

    Lines ``0 .. k-1`` hold ``a``, ``k .. 2k-1`` hold ``b`` (both unchanged)
    and lines ``2k .. 4k-1`` hold the product accumulator ``p``.  Each
    partial product ``a_i * b_j * 2**(i+j)`` is added with a
    doubly-controlled increment, so the construction needs no ancilla lines.
    """
    if register_bits < 1:
        raise CircuitError("multiplier needs registers of at least 1 bit")
    num_lines = 4 * register_bits
    circuit = ReversibleCircuit(num_lines, name=f"multiplier_{register_bits}")
    product_lines = list(range(2 * register_bits, num_lines))
    for i in range(register_bits):
        for j in range(register_bits):
            controls = (Control(i), Control(register_bits + j))
            circuit.extend(_increment_gates(product_lines[i + j :], controls))
    return circuit


def parity_accumulator(num_lines: int) -> ReversibleCircuit:
    """XOR all other lines into line 0: ``out_0 = x_0 XOR ... XOR x_{n-1}``."""
    if num_lines < 1:
        raise CircuitError("parity_accumulator needs at least 1 line")
    circuit = ReversibleCircuit(num_lines, name=f"parity_{num_lines}")
    for line in range(1, num_lines):
        circuit.append(cnot(line, 0))
    return circuit


def fredkin_stage(num_lines: int) -> ReversibleCircuit:
    """A conditional-swap stage: line 0 controls swaps of pairs (1,2), (3,4), ...

    The building block of reversible sorting/permutation networks; expressed
    with MCT gates via the standard Fredkin decomposition.
    """
    if num_lines < 3:
        raise CircuitError("fredkin_stage needs at least 3 lines")
    from repro.circuits.gates import fredkin

    circuit = ReversibleCircuit(num_lines, name=f"fredkin_stage_{num_lines}")
    line = 1
    while line + 1 < num_lines:
        circuit.extend(fredkin(0, line, line + 1))
        line += 2
    return circuit


def bit_reversal(num_lines: int) -> ReversibleCircuit:
    """Reverse the order of the lines with swap gates."""
    circuit = ReversibleCircuit(num_lines, name=f"bit_reversal_{num_lines}")
    for line in range(num_lines // 2):
        circuit.append(SwapGate(line, num_lines - 1 - line))
    return circuit


def cyclic_line_shift(num_lines: int, shift: int = 1) -> ReversibleCircuit:
    """Rotate the lines: input line ``i`` appears on output line ``i + shift``."""
    from repro.circuits.line_permutation import LinePermutation
    from repro.circuits.transforms import permutation_circuit

    mapping = [(line + shift) % num_lines for line in range(num_lines)]
    circuit = permutation_circuit(LinePermutation(mapping))
    circuit.name = f"shift_{num_lines}_{shift % num_lines}"
    return circuit


def _rotate_left(value: int, amount: int, width: int) -> int:
    amount %= width
    mask = (1 << width) - 1
    return ((value << amount) | (value >> (width - amount))) & mask


def hidden_weighted_bit(num_lines: int) -> ReversibleCircuit:
    """The hidden-weighted-bit benchmark function ``hwb_n``.

    The output is the input rotated left by its Hamming weight — the classic
    RevLib benchmark.  The circuit is synthesised from its permutation with
    the transformation-based synthesiser, so this generator is intended for
    small ``n`` (the truth table is exponential).
    """
    permutation = Permutation.from_function(
        lambda value: _rotate_left(value, popcount(value), num_lines), num_lines
    )
    circuit = from_permutation(permutation)
    circuit.name = f"hwb_{num_lines}"
    return circuit


def from_permutation(permutation: Permutation) -> ReversibleCircuit:
    """Synthesise an MCT circuit realising ``permutation``.

    Thin wrapper over
    :func:`repro.synthesis.transformation_based.synthesize` kept here so the
    library module is self-contained for callers.
    """
    from repro.synthesis.transformation_based import synthesize

    return synthesize(permutation)


def catalogue(num_lines: int) -> dict[str, Callable[[], ReversibleCircuit]]:
    """Named circuit generators available at the given line count.

    Only generators whose structural requirements are met by ``num_lines``
    are included.  The benchmark harness iterates this mapping to obtain a
    representative workload mix.
    """
    entries: dict[str, Callable[[], ReversibleCircuit]] = {}
    if num_lines >= 1:
        entries["increment"] = lambda: increment(num_lines)
        entries["gray"] = lambda: gray_code(num_lines)
    if num_lines >= 2:
        entries["cnot_ladder"] = lambda: cnot_ladder(num_lines)
        entries["bit_reversal"] = lambda: bit_reversal(num_lines)
        entries["shift"] = lambda: cyclic_line_shift(num_lines)
    if num_lines >= 2:
        entries["parity"] = lambda: parity_accumulator(num_lines)
    if num_lines >= 3:
        entries["toffoli_chain"] = lambda: toffoli_chain(num_lines)
        entries["fredkin_stage"] = lambda: fredkin_stage(num_lines)
    if num_lines >= 2 and num_lines % 2 == 0:
        entries["adder"] = lambda: ripple_adder(num_lines // 2)
    if num_lines >= 4 and num_lines % 4 == 0:
        entries["multiplier"] = lambda: multiplier(num_lines // 4)
    if 1 <= num_lines <= 8:
        entries["hwb"] = lambda: hidden_weighted_bit(num_lines)
    return entries
