"""Bit-parallel ("bitsliced") evaluation of reversible circuits.

Fingerprinting and matching both reduce to "apply a reversible circuit to
many inputs", and the scalar path walks Python gate objects one input at a
time.  This module transposes the problem: up to :data:`LANE_WIDTH` input
values are packed *per wire* into one Python int used as a vector of
single-bit lanes (bit ``j`` of the word for line ``i`` is bit ``i`` of input
``j``), and every gate of the cascade is then applied to all lanes at once
with a handful of bitwise operations:

* **NOT** — XOR the target's word with the lane mask;
* **CNOT / MCT** — AND together the control words (complementing against
  the lane mask for negative controls) and XOR the resulting activity word
  into the target's word;
* **SWAP** — exchange the two line words.

One pass over the gate list therefore evaluates a whole batch of probes
simultaneously, which is what makes probe digests and the exact matchers'
query loops cheap (see ``docs/architecture.md``, "Bit-parallel
evaluation").  Whole truth tables go to :mod:`repro.circuits.evaluate`.

The scalar path (:meth:`~repro.circuits.circuit.ReversibleCircuit.simulate`,
gate-object ``apply``) is deliberately left untouched: it is the reference
implementation this module is held byte-identical to by the differential
harness in ``tests/properties/test_bitslice_differential.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.circuits.gates import Gate, MCTGate, SwapGate
from repro.exceptions import CircuitError

if TYPE_CHECKING:  # circuit.py imports this module through evaluate.py
    from repro.circuits.circuit import ReversibleCircuit

__all__ = [
    "LANE_WIDTH",
    "supports",
    "pack_lanes",
    "unpack_lanes",
    "compile_gates",
    "apply_compiled",
    "evaluate_compiled",
    "simulate_many",
]

#: Lanes per machine word.  Python ints are arbitrary precision, but 64
#: keeps each word inside one CPython "digit chunk" regime and matches the
#: uint64 framing the ROADMAP describes; longer batches are chunked.
LANE_WIDTH = 64

#: Compiled-op tags (see :func:`compile_gates`).
_OP_MCT = 0
_OP_SWAP = 1


def supports(gates: Iterable[Gate]) -> bool:
    """Whether every gate in ``gates`` has a bitsliced implementation.

    MCT (any control count / polarity) and SWAP cover everything the
    substrate produces; user-defined :class:`~repro.circuits.gates.Gate`
    subclasses fall back to the scalar path at the call sites.
    """
    return all(isinstance(gate, (MCTGate, SwapGate)) for gate in gates)


def _transpose_steps() -> tuple[tuple[int, int], ...]:
    """Shift/mask constants for the 64x64 bit-matrix transpose.

    Step ``k`` swaps, inside every ``2k x 2k`` tile, the upper-right
    ``k x k`` block (rows ``i`` with ``i mod 2k < k``, columns ``j`` with
    ``j mod 2k >= k``) with the lower-left one; the paired bits sit
    ``63 * k`` positions apart in the row-major layout.  Applying the six
    steps transposes the whole matrix in O(log) big-int operations.
    """
    steps = []
    k = LANE_WIDTH // 2
    while k:
        period = 2 * k
        col_pattern = 0
        for col in range(LANE_WIDTH):
            if col % period >= k:
                col_pattern |= 1 << col
        mask = 0
        for row in range(LANE_WIDTH):
            if row % period < k:
                mask |= col_pattern << (LANE_WIDTH * row)
        steps.append(((LANE_WIDTH - 1) * k, mask))
        k //= 2
    return tuple(steps)


_TRANSPOSE_STEPS = _transpose_steps()
_TILE_BYTES = LANE_WIDTH * (LANE_WIDTH // 8)


def _transpose_tile(x: int) -> int:
    """Transpose one 64x64 bit matrix held row-major in a single int."""
    for shift, mask in _TRANSPOSE_STEPS:
        t = ((x >> shift) ^ x) & mask
        x ^= t ^ (t << shift)
    return x


def pack_lanes(values: Sequence[int], num_lines: int) -> list[int]:
    """Transpose a batch of input values into per-line lane words.

    ``result[line]`` holds bit ``line`` of ``values[j]`` at bit position
    ``j``.  The batch must not exceed :data:`LANE_WIDTH` values; inputs are
    assumed to be validated (non-negative, fitting in ``num_lines`` bits).
    Widths up to 64 lines ride the O(log) big-int transpose; wider
    circuits transpose 64 lines per tile.
    """
    if len(values) > LANE_WIDTH:
        raise CircuitError(
            f"batch of {len(values)} values exceeds the {LANE_WIDTH}-lane "
            "word width; chunk it (simulate_many does)"
        )
    row_bytes = (num_lines + 63) // 64 * 8
    data = b"".join(value.to_bytes(row_bytes, "little") for value in values)
    words: list[int] = []
    for tile_start in range(0, row_bytes, 8):
        tile = _transpose_tile(
            int.from_bytes(
                b"".join(
                    data[offset + tile_start : offset + tile_start + 8]
                    for offset in range(0, len(data), row_bytes)
                ),
                "little",
            )
        )
        raw = tile.to_bytes(_TILE_BYTES, "little")
        lines_in_tile = min(num_lines - 8 * tile_start, LANE_WIDTH)
        words.extend(
            int.from_bytes(raw[8 * line : 8 * line + 8], "little")
            for line in range(lines_in_tile)
        )
    return words


def unpack_lanes(words: Sequence[int], num_lines: int, count: int) -> list[int]:
    """Transpose per-line lane words back into ``count`` output values."""
    values = [0] * count
    for tile_index in range(0, num_lines, LANE_WIDTH):
        tile = _transpose_tile(
            int.from_bytes(
                b"".join(
                    word.to_bytes(8, "little")
                    for word in words[tile_index : tile_index + LANE_WIDTH]
                ),
                "little",
            )
        )
        raw = tile.to_bytes(_TILE_BYTES, "little")
        shift = tile_index
        for lane in range(count):
            chunk = int.from_bytes(raw[8 * lane : 8 * lane + 8], "little")
            if chunk:
                values[lane] |= chunk << shift
    return values


def compile_gates(gates: Iterable[Gate]) -> list[tuple]:
    """Lower a gate cascade to flat bitwise-op descriptors.

    Each MCT gate becomes ``(_OP_MCT, positive_lines, negative_lines,
    target)`` and each swap ``(_OP_SWAP, line_a, line_b, None)``, so the
    hot loop touches no gate objects, controls or method dispatch.

    Raises:
        CircuitError: for gate kinds without a bitsliced implementation
            (use :func:`supports` to detect and fall back).
    """
    ops: list[tuple] = []
    for gate in gates:
        if isinstance(gate, MCTGate):
            positive = tuple(c.line for c in gate.controls if c.positive)
            negative = tuple(c.line for c in gate.controls if not c.positive)
            ops.append((_OP_MCT, positive, negative, gate.target))
        elif isinstance(gate, SwapGate):
            ops.append((_OP_SWAP, gate.line_a, gate.line_b, None))
        else:
            raise CircuitError(
                f"no bitsliced implementation for {type(gate).__name__}"
            )
    return ops


def apply_compiled(
    ops: Sequence[tuple], words: list[int], lane_mask: int
) -> list[int]:
    """Apply compiled ops to lane words in place (and return them).

    ``lane_mask`` has one bit set per occupied lane; it is both the
    "all controls satisfied" seed and the complement mask for negative
    controls, so ragged batches never leak activity into empty lanes.
    """
    for tag, first, second, target in ops:
        if tag == _OP_MCT:
            active = lane_mask
            for line in first:
                active &= words[line]
            for line in second:
                active &= words[line] ^ lane_mask
            words[target] ^= active
        else:
            words[first], words[second] = words[second], words[first]
    return words


def evaluate_compiled(
    ops: Sequence[tuple], num_lines: int, values: Sequence[int]
) -> list[int]:
    """Run pre-compiled ops over a batch of already-validated inputs.

    The chunk/pack/apply/unpack pipeline of :func:`simulate_many` without
    the validation and compilation steps, for callers (``CircuitOracle``)
    that validate upstream and cache the compiled ops across calls.
    """
    outputs: list[int] = []
    for start in range(0, len(values), LANE_WIDTH):
        chunk = values[start : start + LANE_WIDTH]
        lane_mask = (1 << len(chunk)) - 1
        words = pack_lanes(chunk, num_lines)
        apply_compiled(ops, words, lane_mask)
        outputs.extend(unpack_lanes(words, num_lines, len(chunk)))
    return outputs


def simulate_many(
    circuit: ReversibleCircuit, values: Sequence[int]
) -> list[int]:
    """Evaluate ``circuit`` on every value of a batch, 64 lanes at a time.

    Exactly equivalent to ``[circuit.simulate(v) for v in values]`` —
    the differential property harness holds the two paths byte-identical —
    but one pass over the gate list serves up to :data:`LANE_WIDTH`
    inputs.  Inputs are validated with the same error as the scalar path.

    Raises:
        CircuitError: on out-of-range inputs, or when the cascade contains
            a gate kind without a bitsliced implementation.
    """
    num_lines = circuit.num_lines
    values = list(values)
    for value in values:
        if value < 0 or value >> num_lines:
            raise CircuitError(
                f"input {value} does not fit in {num_lines} lines"
            )
    ops = compile_gates(circuit.gates)
    return evaluate_compiled(ops, num_lines, values)
