"""Quantum oracles: black boxes that accept superposition inputs.

The quantum algorithms of Sections 4.5/4.6 assume the reversible circuits
"can take quantum states as inputs".  :class:`QuantumCircuitOracle` models
exactly that: the only operation is "hand the oracle an ``n``-qubit state,
receive the transformed state", and every such execution is counted as one
quantum query.  The counting convention matches the classical oracles so the
classical and quantum columns of Table 1 are directly comparable.
"""

from __future__ import annotations

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.permutation import Permutation
from repro.exceptions import OracleError, QueryBudgetExceededError
# apply_circuit is unused here; perfbench's PATCH_POINTS patches it by this path.
from repro.quantum.apply import apply_circuit, apply_permutation  # noqa: F401
from repro.quantum.statevector import Statevector

__all__ = ["QuantumCircuitOracle"]


class QuantumCircuitOracle:
    """Query-counted quantum access to a reversible circuit or permutation.

    Args:
        target: the hidden reversible circuit or permutation.
        max_queries: optional hard budget on quantum queries.
    """

    def __init__(
        self,
        target: ReversibleCircuit | Permutation,
        max_queries: int | None = None,
    ) -> None:
        if isinstance(target, ReversibleCircuit):
            self._num_qubits = target.num_lines
            self._permutation = Permutation.from_circuit(target)
        elif isinstance(target, Permutation):
            self._num_qubits = target.num_bits
            self._permutation = target
        else:
            raise OracleError(
                f"cannot build a quantum oracle from {type(target).__name__}"
            )
        self._max_queries = max_queries
        self._queries = 0
        # (input, output) of the last simulated query; strong references,
        # so the input's id cannot be recycled while it is remembered.
        self._last: tuple[Statevector, Statevector] | None = None

    @property
    def num_qubits(self) -> int:
        """Number of qubits / circuit lines ``n``."""
        return self._num_qubits

    @property
    def query_count(self) -> int:
        """Number of quantum queries made so far."""
        return self._queries

    @property
    def permutation(self) -> Permutation:
        """The hidden permutation (white-box escape hatch, like
        :attr:`repro.oracles.oracle.CircuitOracle.circuit`; used by
        verification and by the service layer's fingerprinting, never by
        matchers)."""
        return self._permutation

    def _charge(self) -> None:
        if self._max_queries is not None and self._queries >= self._max_queries:
            raise QueryBudgetExceededError(
                f"quantum query budget of {self._max_queries} exhausted"
            )
        self._queries += 1

    def query_state(self, state: Statevector) -> Statevector:
        """Run the hidden circuit on ``state`` (one quantum query).

        Every call checks the budget and charges one query, so the Table 1
        query count does not depend on how the output is obtained.  When
        ``state`` is the very object of the previous call and its amplitudes
        are read-only (:attr:`Statevector.read_only`), the previous output
        is returned without simulating again: the circuit is deterministic
        and the input is identical.  A writable state is simulated on every
        call, so mutating it in place between queries is safe.
        """
        if state.num_qubits != self._num_qubits:
            raise OracleError(
                f"state has {state.num_qubits} qubits, oracle expects "
                f"{self._num_qubits}"
            )
        self._charge()
        last = self._last
        if last is not None and last[0] is state and state.read_only:
            return last[1]
        output = apply_permutation(self._permutation, state)
        self._last = (state, output) if state.read_only else None
        return output

    def query_basis(self, value: int) -> int:
        """Classical convenience query (counted like any other query).

        Quantum oracles can of course be queried on computational basis
        states; the matchers use this for the cheap classical preprocessing
        steps (e.g. the all-zero probe of the P-N matcher).

        Raises:
            OracleError: if ``value`` does not fit in ``n`` lines (no query
                is charged).
        """
        if value < 0 or value >> self._num_qubits:
            raise OracleError(
                f"query value {value} does not fit in {self._num_qubits} lines"
            )
        self._charge()
        return self._permutation(value)
