"""Unit tests for the quantum oracle wrapper."""

from __future__ import annotations

import random

import pytest

import repro.quantum.oracle as oracle_module
from repro.circuits.library import figure2_example
from repro.circuits.random import random_circuit, random_permutation
from repro.core.equivalence import EquivalenceType
from repro.core.matchers import match_n_i_quantum, match_np_i_quantum
from repro.core.verify import make_instance
from repro.exceptions import OracleError, QueryBudgetExceededError
from repro.quantum.apply import apply_permutation
from repro.quantum.oracle import QuantumCircuitOracle
from repro.quantum.statevector import PLUS, ZERO, basis_state, product_state
from repro.quantum.swap_test import SwapTest


class TestQuantumCircuitOracle:
    def test_wraps_circuit_and_counts_queries(self):
        oracle = QuantumCircuitOracle(figure2_example())
        assert oracle.num_qubits == 3
        state = oracle.query_state(basis_state(0b011, 3))
        assert state.vector[0b111] == pytest.approx(1.0)
        assert oracle.query_count == 1

    def test_wraps_permutation(self, rng):
        permutation = random_permutation(3, rng)
        oracle = QuantumCircuitOracle(permutation)
        state = oracle.query_state(basis_state(5, 3))
        assert state.vector[permutation(5)] == pytest.approx(1.0)

    def test_rejects_other_types(self):
        with pytest.raises(OracleError):
            QuantumCircuitOracle(lambda x: x)

    def test_dimension_mismatch_rejected(self):
        oracle = QuantumCircuitOracle(figure2_example())
        with pytest.raises(OracleError):
            oracle.query_state(basis_state(0, 2))

    def test_query_budget_enforced(self):
        oracle = QuantumCircuitOracle(figure2_example(), max_queries=2)
        probe = product_state([PLUS, ZERO, PLUS])
        oracle.query_state(probe)
        oracle.query_state(probe)
        with pytest.raises(QueryBudgetExceededError):
            oracle.query_state(probe)

    def test_query_basis_counts_and_matches_classical(self, rng):
        circuit = random_circuit(4, 15, rng)
        oracle = QuantumCircuitOracle(circuit)
        assert oracle.query_basis(9) == circuit.simulate(9)
        assert oracle.query_count == 1

    def test_superposition_input_preserved_structure(self):
        # The Toffoli fixes |+>|+>|0> up to amplitude reshuffling on basis
        # states where both controls are 1.
        oracle = QuantumCircuitOracle(figure2_example())
        state = oracle.query_state(product_state([PLUS, PLUS, ZERO]))
        # Amplitude moved from |011> to |111>.
        assert state.vector[0b011] == pytest.approx(0.0)
        assert abs(state.vector[0b111]) == pytest.approx(0.5)


class TestQueryBasisRange:
    @pytest.mark.parametrize("value", [-1, 4, 5])
    def test_out_of_range_value_rejected_before_charging(self, rng, value):
        oracle = QuantumCircuitOracle(random_permutation(2, rng))
        with pytest.raises(OracleError, match="does not fit in 2 lines"):
            oracle.query_basis(value)
        assert oracle.query_count == 0

    def test_edge_values_accepted(self, rng):
        permutation = random_permutation(2, rng)
        oracle = QuantumCircuitOracle(permutation)
        assert [oracle.query_basis(v) for v in (0, 3)] == [permutation(0), permutation(3)]
        assert oracle.query_count == 2


def seeded_instance(name: str, width: int):
    equivalence = EquivalenceType.from_label(name)
    rng = random.Random(f"budget:{name}")
    base = random_circuit(width, 3 * width, rng)
    c1, c2, _ = make_instance(base, equivalence, rng)
    return c1, c2


class TestOutputReuse:
    def test_repeated_read_only_probe_reuses_the_output(self):
        oracle = QuantumCircuitOracle(figure2_example())
        probe = product_state([PLUS, ZERO, PLUS])
        first = oracle.query_state(probe)
        assert oracle.query_state(probe) is first
        assert oracle.query_count == 2

    def test_outputs_are_read_only(self):
        oracle = QuantumCircuitOracle(figure2_example())
        output = oracle.query_state(product_state([PLUS, PLUS, ZERO]).copy())
        assert output.read_only
        with pytest.raises(ValueError):
            output.vector[0] = 1.0

    def test_mutated_writable_input_yields_the_new_output(self, rng):
        permutation = random_permutation(3, rng)
        oracle = QuantumCircuitOracle(permutation)
        state = basis_state(2, 3).copy()
        assert oracle.query_state(state).vector[permutation(2)] == pytest.approx(1.0)
        state.vector[:] = basis_state(5, 3).vector
        output = oracle.query_state(state)
        assert output.vector[permutation(5)] == pytest.approx(1.0)
        assert output.vector[permutation(2)] == pytest.approx(0.0)
        assert oracle.query_count == 2

    def test_n_i_simulates_each_probe_once(self, monkeypatch):
        # Each of the n probes is simulated once per oracle, however many
        # of its ceil(log2(1/epsilon)) repetitions run.
        calls = []

        def counting(permutation, state):
            calls.append(state)
            return apply_permutation(permutation, state)

        monkeypatch.setattr(oracle_module, "apply_permutation", counting)
        c1, c2 = seeded_instance("N-I", 5)
        result = match_n_i_quantum(c1, c2, epsilon=1e-3, rng=11)
        assert len(calls) == 2 * 5
        assert result.quantum_queries == 68

    @pytest.mark.parametrize(
        ("name", "budget", "expected"),
        [
            # (oracle1 queries, oracle2 queries, swap tests, rng's next draw)
            ("N-I", 25, (25, 25, 25, 0.24194301366521476)),
            ("NP-I", 60, (60, 60, 60, 0.08714419835217013)),
        ],
    )
    def test_budget_raises_at_the_same_query(self, name, budget, expected):
        matcher = match_n_i_quantum if name == "N-I" else match_np_i_quantum
        c1, c2 = seeded_instance(name, 5)
        oracle1 = QuantumCircuitOracle(c1, max_queries=budget)
        oracle2 = QuantumCircuitOracle(c2, max_queries=budget)
        swap_rng = random.Random(11)
        tester = SwapTest(swap_rng)
        with pytest.raises(QueryBudgetExceededError):
            matcher(oracle1, oracle2, epsilon=1e-3, swap_test=tester)
        observed = (oracle1.query_count, oracle2.query_count, tester.runs)
        assert observed + (swap_rng.random(),) == expected
