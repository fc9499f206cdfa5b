"""The :class:`ReversibleCircuit` container.

A reversible circuit is an ordered cascade of reversible gates over a fixed
number of lines.  Gates are applied left to right: ``circuit.simulate(x)``
feeds the bit vector ``x`` into the first gate of the list.  In the paper's
matrix notation a circuit drawn as ``C_A`` followed by ``C_B`` corresponds to
the operator product ``C_B C_A``; :meth:`ReversibleCircuit.then` follows the
drawing order (``a.then(b)`` applies ``a`` first), which keeps example code
readable.

The class deliberately stays a plain container: simulation and structural
editing live here, while the functional (truth-table) view lives in
:class:`repro.circuits.permutation.Permutation` and synthesis back from a
permutation lives in :mod:`repro.synthesis`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Union

import numpy as np

from repro.bits import bits_to_int
from repro.circuits import bitslice
from repro.circuits.evaluate import tabulate
from repro.circuits.gates import Control, Gate, MCTGate, SwapGate
from repro.exceptions import CircuitError

__all__ = ["ReversibleCircuit"]

BitVector = Union[int, Sequence[int]]


class ReversibleCircuit:
    """An ``n``-line reversible circuit as an ordered list of gates.

    Args:
        num_lines: number of circuit lines ``n`` (inputs == outputs == ``n``).
        gates: optional initial gate cascade, applied left to right.
        name: optional human-readable name (used by I/O and reports).

    The circuit is mutable through :meth:`append` / :meth:`extend`; every
    transforming method (:meth:`inverse`, :meth:`then`, :meth:`remapped`, ...)
    returns a new circuit and leaves the receiver untouched.

    A circuit read from a file starts from its lowered ops instead
    (:meth:`compiled`): the evaluation kernels read those directly, and
    the gate objects are built from them only when code asks for them —
    synthesis, drawing, the writers, metrics, ``==``/``hash`` and the
    structure fingerprint, all through :attr:`gates` or iteration.
    """

    def __init__(
        self,
        num_lines: int,
        gates: Iterable[Gate] = (),
        name: str | None = None,
    ) -> None:
        if num_lines <= 0:
            raise CircuitError(f"a circuit needs at least one line, got {num_lines}")
        self._num_lines = num_lines
        # At least one of the two is set: ``_gates`` is None while an
        # ops-built circuit has not been asked for its gates yet.
        self._gates: list[Gate] | None = []
        self._ops: tuple[tuple, ...] | None = None  # compiled()'s cache
        self.name = name
        for gate in gates:
            self.append(gate)

    @classmethod
    def _from_ops(
        cls, num_lines: int, ops: tuple[tuple, ...], name: str | None = None
    ) -> "ReversibleCircuit":
        """A circuit over already-lowered, already-validated ops.

        ``ops`` must equal what :func:`~repro.circuits.bitslice.compile_gates`
        makes of the gates they stand for, on lines below ``num_lines``.
        """
        circuit = cls(num_lines, name=name)
        circuit._gates = None
        circuit._ops = ops
        return circuit

    def _gate_list(self) -> list[Gate]:
        """The gate cascade, built from the ops on first use."""
        if self._gates is None:
            self._gates = [
                SwapGate(first, second)
                if tag == bitslice.OP_SWAP
                else MCTGate(
                    tuple(
                        Control(line, bool(polarity >> line & 1))
                        for line in sorted(first + second)
                    ),
                    target,
                )
                for tag, first, second, target, _mask, polarity in self._ops
            ]
        return self._gates

    # -- structure ----------------------------------------------------------
    @property
    def num_lines(self) -> int:
        """Number of circuit lines ``n``."""
        return self._num_lines

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gate cascade as an immutable tuple (left = applied first)."""
        return tuple(self._gate_list())

    @property
    def num_gates(self) -> int:
        """Total number of gates in the cascade."""
        return len(self)

    @property
    def size(self) -> int:
        """Alias for :attr:`num_gates` (common EDA terminology)."""
        return self.num_gates

    def gate_counts(self) -> dict[str, int]:
        """Histogram of gate kinds, keyed by a short mnemonic.

        MCT gates are keyed by their control count (``"NOT"``, ``"CNOT"``,
        ``"TOFFOLI"``, ``"MCT3"``, ``"MCT4"``, ...), swaps by ``"SWAP"``.
        """
        counts: dict[str, int] = {}
        for gate in self._gate_list():
            if isinstance(gate, SwapGate):
                key = "SWAP"
            elif isinstance(gate, MCTGate):
                key = {0: "NOT", 1: "CNOT", 2: "TOFFOLI"}.get(
                    gate.num_controls, f"MCT{gate.num_controls}"
                )
            else:  # pragma: no cover - only reachable with user-defined gates
                key = type(gate).__name__
            counts[key] = counts.get(key, 0) + 1
        return counts

    def append(self, gate: Gate) -> "ReversibleCircuit":
        """Append ``gate`` to the cascade (returns ``self`` for chaining)."""
        if gate.max_line >= self._num_lines:
            raise CircuitError(
                f"gate {gate} uses line {gate.max_line} but the circuit has "
                f"only {self._num_lines} lines"
            )
        self._gate_list().append(gate)
        self._ops = None
        return self

    def extend(self, gates: Iterable[Gate]) -> "ReversibleCircuit":
        """Append every gate in ``gates`` (returns ``self`` for chaining)."""
        for gate in gates:
            self.append(gate)
        return self

    def copy(self, name: str | None = None) -> "ReversibleCircuit":
        """A shallow copy (gates and ops are immutable, so sharing is safe)."""
        if self._gates is None:
            return ReversibleCircuit._from_ops(
                self._num_lines, self._ops, name or self.name
            )
        return ReversibleCircuit(self._num_lines, self._gates, name or self.name)

    def compiled(self) -> tuple[tuple, ...] | None:
        """The cascade lowered by :func:`repro.circuits.bitslice.compile_gates`.

        Computed on first use and cached until the next :meth:`append`;
        the numpy tabulation, the bitsliced batches and the circuit
        oracles all read this one lowering.  A parsed circuit starts from
        these ops and builds its gates lazily, so reading them costs it
        nothing.  ``None`` when the cascade holds a user-defined gate
        kind: such a cascade is re-scanned on every call, which its
        scalar fallback dwarfs.
        """
        if self._ops is None:
            self._ops = bitslice.compile_gates(self._gates)
        return self._ops

    # -- semantics ----------------------------------------------------------
    def _coerce_input(self, value: BitVector) -> int:
        if isinstance(value, int):
            if value < 0 or value >> self._num_lines:
                raise CircuitError(
                    f"input {value} does not fit in {self._num_lines} lines"
                )
            return value
        bits = list(value)
        if len(bits) != self._num_lines:
            raise CircuitError(
                f"expected {self._num_lines} input bits, got {len(bits)}"
            )
        return bits_to_int(bits)

    def simulate(self, value: BitVector) -> int:
        """Run the circuit on a classical input and return the output as int.

        ``value`` may be an integer bit vector or a sequence of bits
        (index ``i`` = line ``i``).
        """
        state = self._coerce_input(value)
        for gate in self._gate_list():
            state = gate.apply(state)
        return state

    def truth_table(self) -> list[int]:
        """The full truth table: entry ``x`` holds ``simulate(x)``.

        Exponential in ``num_lines``; tabulated in one numpy pass per gate
        by :func:`repro.circuits.evaluate.tabulate`.
        """
        return tabulate(self).tolist()

    def is_identity(self) -> bool:
        """Whether the circuit computes the identity function (exhaustive)."""
        table = tabulate(self)
        return bool((table == np.arange(table.size)).all())

    def functionally_equal(self, other: "ReversibleCircuit") -> bool:
        """Exhaustive functional comparison with another circuit."""
        if self._num_lines != other._num_lines:
            return False
        return bool(np.array_equal(tabulate(self), tabulate(other)))

    # -- composition and transformation --------------------------------------
    def inverse(self) -> "ReversibleCircuit":
        """The inverse circuit: gates reversed, each gate inverted."""
        name = f"{self.name}^-1" if self.name else None
        if self._gates is None:
            # Every lowered gate is an involution: reversing the ops inverts.
            return ReversibleCircuit._from_ops(self._num_lines, self._ops[::-1], name)
        gates = [gate.inverse() for gate in reversed(self._gates)]
        return ReversibleCircuit(self._num_lines, gates, name)

    def then(self, other: "ReversibleCircuit") -> "ReversibleCircuit":
        """The cascade "``self`` followed by ``other``".

        In the paper's operator notation this is the product
        ``other @ self``; the method name follows the drawing order.
        """
        if other._num_lines != self._num_lines:
            raise CircuitError(
                "cannot compose circuits with different line counts "
                f"({self._num_lines} vs {other._num_lines})"
            )
        return ReversibleCircuit(
            self._num_lines, self._gate_list() + other._gate_list()
        )

    def __matmul__(self, other: "ReversibleCircuit") -> "ReversibleCircuit":
        """Operator-order composition: ``(A @ B)(x) == A(B(x))``."""
        return other.then(self)

    # Line relabelling; the bitslice and tabulate differential harnesses
    # sweep remapped circuits through it.
    # repro: allow[drift-test-only-api]
    def remapped(self, line_map: Sequence[int]) -> "ReversibleCircuit":
        """Relabel every line ``i`` to ``line_map[i]``.

        ``line_map`` must be a permutation of ``range(num_lines)``.
        """
        if sorted(line_map) != list(range(self._num_lines)):
            raise CircuitError(
                "line_map must be a permutation of the circuit's lines"
            )
        gates = [gate.remapped(line_map) for gate in self._gate_list()]
        return ReversibleCircuit(self._num_lines, gates, self.name)

    # -- dunder plumbing -----------------------------------------------------
    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gate_list())

    def __len__(self) -> int:
        return len(self._ops if self._gates is None else self._gates)

    def __eq__(self, other: object) -> bool:
        """Structural equality (same lines, same gate cascade)."""
        if not isinstance(other, ReversibleCircuit):
            return NotImplemented
        return (
            self._num_lines == other._num_lines
            and self._gate_list() == other._gate_list()
        )

    def __hash__(self) -> int:
        return hash((self._num_lines, tuple(self._gate_list())))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<ReversibleCircuit{label} lines={self._num_lines} "
            f"gates={len(self)}>"
        )

    def __str__(self) -> str:
        header = self.name or "circuit"
        lines = [f"{header} ({self._num_lines} lines, {len(self)} gates)"]
        lines.extend(
            f"  {index}: {gate}" for index, gate in enumerate(self._gate_list())
        )
        return "\n".join(lines)
