"""Dense state vectors over ``n`` qubits.

A state of ``n`` qubits is stored as a complex numpy vector of length
``2**n``; the amplitude at index ``x`` belongs to the computational basis
state whose qubit ``i`` equals bit ``i`` of ``x`` — the same line/bit
convention the classical simulator uses, so a reversible circuit acts on a
:class:`Statevector` simply by permuting amplitude indices.

Only what the paper's algorithms need is implemented: product-state
preparation over the single-qubit alphabet ``{|0>, |1>, |+>, |->}``, inner
products, normalisation checks and Born-rule sampling of a single
qubit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import QuantumError

__all__ = [
    "ZERO",
    "ONE",
    "PLUS",
    "MINUS",
    "Statevector",
    "basis_state",
    "product_state",
]

#: Single-qubit state labels accepted by :func:`product_state`.
ZERO = "0"
ONE = "1"
PLUS = "+"
MINUS = "-"

_SINGLE_QUBIT_AMPLITUDES: dict[str, np.ndarray] = {
    ZERO: np.array([1.0, 0.0], dtype=complex),
    ONE: np.array([0.0, 1.0], dtype=complex),
    PLUS: np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    MINUS: np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}

_ATOL = 1e-9


class Statevector:
    """An ``n``-qubit pure state.

    Args:
        amplitudes: complex vector of length ``2**num_qubits``.
        num_qubits: number of qubits; inferred from the vector length when
            omitted.
        validate: check the length is a power of two and the norm is one.
    """

    def __init__(
        self,
        amplitudes: Sequence[complex] | np.ndarray,
        num_qubits: int | None = None,
        validate: bool = True,
    ) -> None:
        vector = np.asarray(amplitudes, dtype=complex)
        if vector.ndim != 1:
            raise QuantumError("amplitudes must form a one-dimensional vector")
        size = vector.shape[0]
        if size == 0:
            raise QuantumError("a state vector needs at least one amplitude")
        if num_qubits is None:
            num_qubits = int(size).bit_length() - 1
        if size != 1 << num_qubits:
            raise QuantumError(f"vector length {size} is not 2**{num_qubits}")
        if validate and not np.isclose(np.vdot(vector, vector).real, 1.0, atol=1e-6):
            raise QuantumError("state vector is not normalised")
        self._vector = vector
        self._num_qubits = num_qubits

    # -- structure -----------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of qubits ``n``."""
        return self._num_qubits

    @property
    def vector(self) -> np.ndarray:
        """The underlying amplitude vector (a copy is *not* made)."""
        return self._vector

    @property
    def read_only(self) -> bool:
        """Whether the amplitude array is read-only.

        The states :func:`product_state`, :func:`basis_state` and
        :func:`~repro.quantum.apply.apply_permutation` build are; their
        amplitudes cannot change after construction, which is what lets
        the quantum oracle and the swap test reuse a result computed for
        the very same state object.  :meth:`copy` is writable, and so is a
        state built from caller data unless the caller's array is read-only.
        """
        return not self._vector.flags.writeable

    @property
    def dimension(self) -> int:
        """Hilbert-space dimension ``2**n``."""
        return self._vector.shape[0]

    def copy(self) -> "Statevector":
        """An independent copy of the state."""
        return Statevector(self._vector.copy(), self._num_qubits, validate=False)

    # -- algebra ---------------------------------------------------------------
    def inner_product(self, other: "Statevector") -> complex:
        """The inner product ``<self|other>``."""
        if other._num_qubits != self._num_qubits:
            raise QuantumError("inner product of states with different qubit counts")
        return complex(np.vdot(self._vector, other._vector))

    # The unit-norm invariant the quantum property tests assert after
    # every operation.
    # repro: allow[drift-test-only-api]
    def is_normalized(self, atol: float = 1e-6) -> bool:
        """Whether the state has unit norm."""
        return bool(np.isclose(np.vdot(self._vector, self._vector).real, 1.0, atol=atol))

    def tensor(self, other: "Statevector") -> "Statevector":
        """The tensor product ``self (x) other``.

        ``other``'s qubits are appended *after* ``self``'s, i.e. they occupy
        the higher bit positions of the joint index — consistent with the
        bit-per-line convention.
        """
        joint = np.zeros(self.dimension * other.dimension, dtype=complex)
        for high in range(other.dimension):
            block = other._vector[high] * self._vector
            joint[high * self.dimension : (high + 1) * self.dimension] = block
        return Statevector(
            joint, self._num_qubits + other._num_qubits, validate=False
        )

    def probability_of_qubit(self, qubit: int, outcome: int) -> float:
        """Born-rule probability that measuring ``qubit`` yields ``outcome``."""
        if not 0 <= qubit < self._num_qubits:
            raise QuantumError(f"qubit {qubit} out of range")
        indices = np.arange(self.dimension)
        mask = ((indices >> qubit) & 1) == (outcome & 1)
        return float(np.sum(np.abs(self._vector[mask]) ** 2))

    def probabilities(self) -> np.ndarray:
        """The full Born-rule distribution over computational basis states."""
        return np.abs(self._vector) ** 2

    # -- comparison --------------------------------------------------------------
    def equals(self, other: "Statevector", atol: float = _ATOL) -> bool:
        """Exact amplitude-wise equality up to ``atol`` (no global phase)."""
        if other._num_qubits != self._num_qubits:
            return False
        return bool(np.allclose(self._vector, other._vector, atol=atol))

    def __repr__(self) -> str:
        return f"<Statevector qubits={self._num_qubits}>"


def basis_state(value: int, num_qubits: int) -> Statevector:
    """The computational basis state ``|value>`` on ``num_qubits`` qubits."""
    if value < 0 or value >> num_qubits:
        raise QuantumError(f"basis label {value} does not fit in {num_qubits} qubits")
    vector = np.zeros(1 << num_qubits, dtype=complex)
    vector[value] = 1.0
    vector.flags.writeable = False
    return Statevector(vector, num_qubits, validate=False)


def product_state(labels: Sequence[str]) -> Statevector:
    """A product state from per-qubit labels.

    ``labels[i]`` is the state of qubit ``i`` and must be one of ``"0"``,
    ``"1"``, ``"+"`` or ``"-"``.  This covers every input state the paper's
    algorithms prepare (e.g. ``|0>|+>...|+>`` in Algorithm 1 or the
    ``|+>/|->`` patterns of the NP-I matcher).
    """
    if not labels:
        raise QuantumError("a product state needs at least one qubit")
    num_qubits = len(labels)
    vector = np.ones(1, dtype=complex)
    # Qubit i occupies bit i of the amplitude index, so each new qubit's
    # amplitudes multiply in as the slow (outer) Kronecker factor:
    # ``kron((a0, a1), v)`` is ``a0 * v`` followed by ``a1 * v``, the same
    # products concatenated, so the amplitudes are bitwise those of kron.
    for label in labels:
        if label not in _SINGLE_QUBIT_AMPLITUDES:
            raise QuantumError(
                f"unknown single-qubit label {label!r}; expected one of 0, 1, +, -"
            )
        low, high = _SINGLE_QUBIT_AMPLITUDES[label]
        vector = np.concatenate((low * vector, high * vector))
    vector.flags.writeable = False
    return Statevector(vector, num_qubits, validate=False)
