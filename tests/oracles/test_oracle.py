"""Unit tests for the classical oracle wrappers."""

from __future__ import annotations

import pytest

from repro.circuits.library import figure2_example, increment
from repro.circuits.permutation import Permutation
from repro.circuits.random import random_circuit, random_permutation
from repro.exceptions import (
    InverseUnavailableError,
    OracleError,
    QueryBudgetExceededError,
)
from repro.oracles import (
    CircuitOracle,
    FunctionOracle,
    PermutationOracle,
    as_oracle,
)


class TestCircuitOracle:
    def test_forward_query_matches_simulation(self, rng):
        circuit = random_circuit(4, 12, rng)
        oracle = CircuitOracle(circuit)
        for value in range(16):
            assert oracle.query(value) == circuit.simulate(value)

    def test_query_counting(self):
        oracle = CircuitOracle(figure2_example())
        oracle.query(0)
        oracle.query(1)
        assert oracle.query_count == 2
        assert oracle.total_queries == 2

    def test_inverse_disabled_by_default(self):
        oracle = CircuitOracle(figure2_example())
        assert not oracle.has_inverse
        with pytest.raises(InverseUnavailableError):
            oracle.query_inverse(0)

    def test_inverse_query_matches_inverse_circuit(self, rng):
        circuit = random_circuit(4, 12, rng)
        oracle = CircuitOracle(circuit, with_inverse=True)
        for value in range(16):
            assert circuit.simulate(oracle.query_inverse(value)) == value
        assert oracle.inverse_query_count == 16
        assert oracle.query_count == 0

    def test_out_of_range_query_rejected(self):
        oracle = CircuitOracle(figure2_example())
        with pytest.raises(OracleError):
            oracle.query(8)
        with pytest.raises(OracleError):
            oracle.query(-1)

    def test_query_budget(self):
        oracle = CircuitOracle(figure2_example(), max_queries=3)
        for value in range(3):
            oracle.query(value)
        with pytest.raises(QueryBudgetExceededError):
            oracle.query(3)

    def test_white_box_escape_hatch(self):
        circuit = figure2_example()
        assert CircuitOracle(circuit).circuit is circuit


class TestPermutationOracle:
    def test_forward_and_inverse(self, rng):
        permutation = random_permutation(3, rng)
        oracle = PermutationOracle(permutation, with_inverse=True)
        for value in range(8):
            assert oracle.query(value) == permutation(value)
            assert permutation(oracle.query_inverse(value)) == value

    def test_escape_hatch(self, rng):
        permutation = random_permutation(3, rng)
        assert PermutationOracle(permutation).permutation is permutation


class TestFunctionOracle:
    def test_forward_function(self):
        oracle = FunctionOracle(lambda value: value ^ 0b101, 3)
        assert oracle.query(0) == 0b101

    def test_inverse_requires_explicit_function(self):
        with pytest.raises(OracleError):
            FunctionOracle(lambda value: value, 3, with_inverse=True)

    def test_inverse_function_used(self):
        oracle = FunctionOracle(
            lambda value: (value + 1) % 8,
            3,
            inverse_function=lambda value: (value - 1) % 8,
            with_inverse=True,
        )
        assert oracle.query_inverse(0) == 7


class TestAsOracle:
    def test_circuit_coerced(self):
        oracle = as_oracle(increment(3))
        assert oracle.query(3) == 4

    def test_permutation_coerced(self):
        oracle = as_oracle(Permutation.identity(2), with_inverse=True)
        assert oracle.query_inverse(1) == 1

    def test_existing_oracle_passthrough(self):
        oracle = CircuitOracle(figure2_example(), with_inverse=True)
        assert as_oracle(oracle, with_inverse=False) is oracle

    def test_unknown_type_rejected(self):
        with pytest.raises(OracleError):
            as_oracle("not a circuit")

    def test_zero_lines_rejected(self):
        with pytest.raises(OracleError):
            FunctionOracle(lambda value: value, 0)
