"""Property-based tests for the SAT substrate and the hardness encodings."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF, Clause
from repro.sat.solver import enumerate_models, solve


@st.composite
def cnf_formulas(draw, max_variables: int = 4, max_clauses: int = 6):
    num_variables = draw(st.integers(min_value=1, max_value=max_variables))
    num_clauses = draw(st.integers(min_value=1, max_value=max_clauses))
    clauses = []
    for _ in range(num_clauses):
        size = draw(st.integers(min_value=1, max_value=num_variables))
        variables = draw(
            st.permutations(list(range(1, num_variables + 1))).map(
                lambda vs: vs[:size]
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        clauses.append(
            Clause([v if s else -v for v, s in zip(variables, signs)])
        )
    return CNF(clauses, num_variables)


def brute_force_satisfiable(formula: CNF) -> bool:
    for bits in itertools.product([False, True], repeat=formula.num_variables):
        if formula.evaluate({i + 1: b for i, b in enumerate(bits)}):
            return True
    return False


class TestSolverProperties:
    @given(cnf_formulas())
    @settings(max_examples=80, deadline=None)
    def test_solver_agrees_with_brute_force(self, formula):
        assert solve(formula).satisfiable == brute_force_satisfiable(formula)

    @given(cnf_formulas())
    @settings(max_examples=60, deadline=None)
    def test_returned_models_satisfy_the_formula(self, formula):
        result = solve(formula)
        if result.satisfiable:
            assert formula.evaluate(result.assignment)

    @given(cnf_formulas(max_variables=3, max_clauses=4))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_yields_distinct_models(self, formula):
        models = [tuple(sorted(m.items())) for m in enumerate_models(formula)]
        assert len(models) == len(set(models))


class TestEncodingProperties:
    @given(cnf_formulas(max_variables=3, max_clauses=3))
    @settings(max_examples=25, deadline=None)
    def test_encoding_circuit_computes_phi_on_clean_ancillas(self, formula):
        from repro.core.hardness.encoding import unique_sat_encoding_circuit

        circuit, layout = unique_sat_encoding_circuit(formula)
        for bits in itertools.product((0, 1), repeat=formula.num_variables):
            value = sum(bit << layout.variable_lines[i] for i, bit in enumerate(bits))
            output = circuit.simulate(value)
            phi = formula.evaluate({i + 1: bool(b) for i, b in enumerate(bits)})
            assert (output >> layout.result_line) & 1 == int(phi)

    @given(cnf_formulas(max_variables=3, max_clauses=3))
    @settings(max_examples=20, deadline=None)
    def test_encoding_circuit_is_reversible(self, formula):
        from repro.core.hardness.encoding import unique_sat_encoding_circuit

        circuit, layout = unique_sat_encoding_circuit(formula)
        table = circuit.truth_table()
        assert sorted(table) == list(range(1 << layout.num_lines))
