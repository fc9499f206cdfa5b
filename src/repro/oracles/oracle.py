"""Classical black-box oracles with query counting.

Problem 1 of the paper hands the matcher two circuits *as black boxes*: the
only allowed interaction is "feed an input, observe the output", and — in
the variant problem — the same for the inverse circuit.  The classes here
enforce that discipline and count every interaction, because the number of
such interactions is precisely the complexity measure of Table 1.

The quantum counterpart (oracles that accept superposition states) lives in
:mod:`repro.quantum.oracle`; it shares the counting conventions so classical
and quantum query counts are directly comparable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable

from repro.circuits import bitslice
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.evaluate import tabulate
from repro.circuits.permutation import Permutation
from repro.exceptions import (
    InverseUnavailableError,
    OracleError,
    QueryBudgetExceededError,
)

__all__ = [
    "ReversibleOracle",
    "CircuitOracle",
    "PermutationOracle",
    "FunctionOracle",
    "as_oracle",
]


class ReversibleOracle(ABC):
    """Abstract black-box access to an ``n``-bit reversible function.

    Args:
        num_lines: bit width ``n`` of the hidden function.
        with_inverse: whether :meth:`query_inverse` is allowed (the "inverse
            circuit available" rows of Table 1).
        max_queries: optional hard budget on the *total* number of queries
            (forward + inverse); exceeding it raises
            :class:`QueryBudgetExceededError`.  Used by lower-bound
            experiments to cap runaway classical searches.
    """

    def __init__(
        self,
        num_lines: int,
        with_inverse: bool = False,
        max_queries: int | None = None,
    ) -> None:
        if num_lines <= 0:
            raise OracleError(f"oracle needs at least one line, got {num_lines}")
        self._num_lines = num_lines
        self._with_inverse = with_inverse
        self._max_queries = max_queries
        self._forward_queries = 0
        self._inverse_queries = 0

    # -- interface -----------------------------------------------------------
    @property
    def num_lines(self) -> int:
        """Bit width ``n`` of the hidden function."""
        return self._num_lines

    @property
    def has_inverse(self) -> bool:
        """Whether inverse queries are permitted."""
        return self._with_inverse

    @property
    def query_count(self) -> int:
        """Number of forward queries made so far."""
        return self._forward_queries

    @property
    def inverse_query_count(self) -> int:
        """Number of inverse queries made so far."""
        return self._inverse_queries

    @property
    def total_queries(self) -> int:
        """Forward plus inverse queries."""
        return self._forward_queries + self._inverse_queries

    def reset_counts(self) -> None:
        """Reset both query counters to zero."""
        self._forward_queries = 0
        self._inverse_queries = 0

    def peek(self, value: int) -> int:
        """White-box evaluation on one input, charging no queries.

        The pointwise counterpart of :meth:`peek_table`: the sampled-probe
        fingerprinter evaluates opaque oracles through this hatch so
        identity computation stays outside the query-complexity
        accounting — and stays affordable at widths where tabulating the
        whole table is not.  Never for matchers.
        """
        self._check_input(value)
        return self._evaluate(value)

    def evaluate_many(self, values: "Iterable[int]") -> list[int]:
        """White-box batch evaluation, charging no queries.

        The batch counterpart of :meth:`peek` and the capability the
        bit-parallel hot path hangs off: the base class falls back to a
        scalar loop (exactly ``[self.peek(v) for v in values]``), while
        :class:`CircuitOracle` overrides the hook with the 64-lane
        bitsliced evaluator and :class:`PermutationOracle` with direct
        table lookups.  Like ``peek``/``peek_table``, never for matchers —
        they batch through :meth:`query_many`, which charges.
        """
        values = list(values)
        for value in values:
            self._check_input(value)
        return self._evaluate_many(values)

    def peek_table(self) -> list[int]:
        """White-box tabulation of the hidden function, charging no queries.

        Like the ``circuit``/``permutation`` escape hatches of the concrete
        oracles, this steps outside the black-box model: it is for
        verification and for the service layer's fingerprinting/caching,
        never for matchers (whose complexity is measured in queries).
        Exponential in the line count — fingerprinting routes through
        :meth:`evaluate_many` on a bounded probe set instead wherever the
        probe scheme applies (the ``peek_table`` cost cliff).  Circuit and
        permutation oracles override it with the numpy tabulation kernel
        and the stored table.
        """
        return self._evaluate_many(list(range(1 << self._num_lines)))

    # -- querying --------------------------------------------------------------
    def _charge(self) -> None:
        if (
            self._max_queries is not None
            and self.total_queries >= self._max_queries
        ):
            raise QueryBudgetExceededError(
                f"query budget of {self._max_queries} exhausted"
            )

    def _check_input(self, value: int) -> None:
        if value < 0 or value >> self._num_lines:
            raise OracleError(
                f"query value {value} does not fit in {self._num_lines} lines"
            )

    def query(self, value: int) -> int:
        """Evaluate the hidden function on the bit vector ``value``."""
        self._check_input(value)
        self._charge()
        self._forward_queries += 1
        return self._evaluate(value)

    def query_inverse(self, value: int) -> int:
        """Evaluate the hidden function's inverse on ``value``.

        Raises :class:`InverseUnavailableError` unless the oracle was created
        with ``with_inverse=True``.
        """
        if not self._with_inverse:
            raise InverseUnavailableError(
                "this oracle does not expose the inverse circuit"
            )
        self._check_input(value)
        self._charge()
        self._inverse_queries += 1
        return self._evaluate_inverse(value)

    def query_many(self, values: Iterable[int]) -> list[int]:
        """Batch form of :meth:`query`: one logical query per value.

        Query accounting is *per probe, not per word*: each value is
        checked and charged in order exactly as the scalar loop
        ``[self.query(v) for v in values]`` would, so a budget that
        exhausts mid-batch raises at the same probe index with the same
        counters — only the evaluation itself is batched (bitsliced for
        circuit oracles), never the complexity measure.
        """
        values = list(values)
        for value in values:
            self._check_input(value)
            self._charge()
            self._forward_queries += 1
        return self._evaluate_many(values)

    def query_inverse_many(self, values: Iterable[int]) -> list[int]:
        """Batch form of :meth:`query_inverse` (same accounting contract)."""
        if not self._with_inverse:
            raise InverseUnavailableError(
                "this oracle does not expose the inverse circuit"
            )
        values = list(values)
        for value in values:
            self._check_input(value)
            self._charge()
            self._inverse_queries += 1
        return self._evaluate_inverse_many(values)

    # -- implementation hooks --------------------------------------------------
    @abstractmethod
    def _evaluate(self, value: int) -> int:
        """Evaluate the hidden function (no counting, no checks)."""

    @abstractmethod
    def _evaluate_inverse(self, value: int) -> int:
        """Evaluate the hidden inverse function (no counting, no checks)."""

    def _evaluate_many(self, values: list[int]) -> list[int]:
        """Batch-evaluate the hidden function (no counting, no checks).

        The scalar reference loop; concrete oracles with a bit-parallel
        representation override this.
        """
        return [self._evaluate(value) for value in values]

    def _evaluate_inverse_many(self, values: list[int]) -> list[int]:
        """Batch-evaluate the hidden inverse (no counting, no checks)."""
        return [self._evaluate_inverse(value) for value in values]


class CircuitOracle(ReversibleOracle):
    """Black-box view of a :class:`ReversibleCircuit`.

    The inverse, when requested, is materialised once as the reversed
    cascade — exactly what "the inverse circuit is available" means for a
    white-box circuit.
    """

    def __init__(
        self,
        circuit: ReversibleCircuit,
        with_inverse: bool = False,
        max_queries: int | None = None,
    ) -> None:
        super().__init__(circuit.num_lines, with_inverse, max_queries)
        self._circuit = circuit
        self._inverse_circuit = circuit.inverse() if with_inverse else None
        # (num_gates, compiled ops or None) — circuits only grow by
        # appending, so a gate-count mismatch is a reliable staleness
        # signal for the compiled-op cache.
        self._compiled: tuple[int, list[tuple] | None] | None = None
        self._compiled_inverse: tuple[int, list[tuple] | None] | None = None

    @property
    def circuit(self) -> ReversibleCircuit:
        """The wrapped circuit (white-box escape hatch for verification)."""
        return self._circuit

    def _evaluate(self, value: int) -> int:
        return self._circuit.simulate(value)

    def _evaluate_inverse(self, value: int) -> int:
        assert self._inverse_circuit is not None
        return self._inverse_circuit.simulate(value)

    def peek_table(self) -> list[int]:
        return tabulate(self._circuit).tolist()

    @staticmethod
    def _compiled_ops(
        circuit: ReversibleCircuit,
        cache: tuple[int, list[tuple] | None] | None,
    ) -> tuple[int, list[tuple] | None]:
        if cache is not None and cache[0] == circuit.num_gates:
            return cache
        gates = circuit.gates
        ops = bitslice.compile_gates(gates) if bitslice.supports(gates) else None
        return (circuit.num_gates, ops)

    def _evaluate_many(self, values: list[int]) -> list[int]:
        # 64-lane bitsliced evaluation; user-defined gate kinds fall back
        # to the scalar reference loop.
        self._compiled = self._compiled_ops(self._circuit, self._compiled)
        ops = self._compiled[1]
        if ops is None:
            return super()._evaluate_many(values)
        return bitslice.evaluate_compiled(ops, self._num_lines, values)

    def _evaluate_inverse_many(self, values: list[int]) -> list[int]:
        assert self._inverse_circuit is not None
        self._compiled_inverse = self._compiled_ops(
            self._inverse_circuit, self._compiled_inverse
        )
        ops = self._compiled_inverse[1]
        if ops is None:
            return super()._evaluate_inverse_many(values)
        return bitslice.evaluate_compiled(ops, self._num_lines, values)


class PermutationOracle(ReversibleOracle):
    """Black-box view of a tabulated :class:`Permutation`."""

    def __init__(
        self,
        permutation: Permutation,
        with_inverse: bool = False,
        max_queries: int | None = None,
    ) -> None:
        super().__init__(permutation.num_bits, with_inverse, max_queries)
        self._permutation = permutation
        self._inverse = permutation.inverse() if with_inverse else None

    @property
    def permutation(self) -> Permutation:
        """The wrapped permutation (white-box escape hatch for verification)."""
        return self._permutation

    def _evaluate(self, value: int) -> int:
        return self._permutation(value)

    def _evaluate_inverse(self, value: int) -> int:
        assert self._inverse is not None
        return self._inverse(value)

    def peek_table(self) -> list[int]:
        return list(self._permutation.mapping)

    def _evaluate_many(self, values: list[int]) -> list[int]:
        mapping = self._permutation.mapping
        return [mapping[value] for value in values]

    def _evaluate_inverse_many(self, values: list[int]) -> list[int]:
        assert self._inverse is not None
        mapping = self._inverse.mapping
        return [mapping[value] for value in values]


class FunctionOracle(ReversibleOracle):
    """Black-box view of an arbitrary Python bijection on ``range(2**n)``.

    Args:
        function: the forward mapping.
        num_lines: bit width.
        inverse_function: optional inverse mapping; required when
            ``with_inverse`` is set.
    """

    def __init__(
        self,
        function: Callable[[int], int],
        num_lines: int,
        inverse_function: Callable[[int], int] | None = None,
        with_inverse: bool = False,
        max_queries: int | None = None,
    ) -> None:
        if with_inverse and inverse_function is None:
            raise OracleError(
                "with_inverse=True requires an explicit inverse_function"
            )
        super().__init__(num_lines, with_inverse, max_queries)
        self._function = function
        self._inverse_function = inverse_function

    def _evaluate(self, value: int) -> int:
        return self._function(value)

    def _evaluate_inverse(self, value: int) -> int:
        assert self._inverse_function is not None
        return self._inverse_function(value)


def as_oracle(
    target: "ReversibleOracle | ReversibleCircuit | Permutation",
    with_inverse: bool = False,
    max_queries: int | None = None,
) -> ReversibleOracle:
    """Coerce a circuit, permutation or oracle into a :class:`ReversibleOracle`.

    Existing oracles are returned unchanged (their own inverse availability
    wins); circuits and permutations are wrapped.  Matchers call this so
    users can pass plain circuits in example code while experiments pass
    carefully configured oracles.
    """
    if isinstance(target, ReversibleOracle):
        return target
    if isinstance(target, ReversibleCircuit):
        return CircuitOracle(target, with_inverse=with_inverse, max_queries=max_queries)
    if isinstance(target, Permutation):
        return PermutationOracle(
            target, with_inverse=with_inverse, max_queries=max_queries
        )
    raise OracleError(f"cannot build an oracle from {type(target).__name__}")
