"""Unit tests for CNF data structures."""

from __future__ import annotations

import pytest

from repro.exceptions import SatError
from repro.sat.cnf import CNF, Clause


class TestClause:
    def test_construction_and_iteration(self):
        clause = Clause([1, -2, 3])
        assert list(clause) == [1, -2, 3]
        assert len(clause) == 3

    def test_zero_literal_rejected(self):
        with pytest.raises(SatError):
            Clause([1, 0])

    def test_variables(self):
        assert Clause([1, -2, 3]).variables == frozenset({1, 2, 3})

    def test_empty_flag(self):
        assert Clause([]).is_empty

    def test_evaluate(self):
        clause = Clause([1, -2])
        assert clause.evaluate({1: True, 2: True})
        assert clause.evaluate({1: False, 2: False})
        assert not clause.evaluate({1: False, 2: True})

    def test_evaluate_missing_variable(self):
        with pytest.raises(SatError):
            Clause([3]).evaluate({1: True})

    def test_str(self):
        assert str(Clause([1, -2])) == "(x1 | ~x2)"
        assert str(Clause([])) == "()"


class TestCNF:
    def test_num_variables_inferred(self):
        formula = CNF([[1, -3], [2]])
        assert formula.num_variables == 3
        assert formula.num_clauses == 2

    def test_explicit_num_variables(self):
        formula = CNF([[1]], num_variables=5)
        assert formula.num_variables == 5

    def test_explicit_num_variables_too_small(self):
        with pytest.raises(SatError):
            CNF([[1, 4]], num_variables=2)

    def test_add_clause_grows_variables(self):
        formula = CNF([[1]])
        formula.add_clause([5, -2])
        assert formula.num_variables == 5
        assert formula.num_clauses == 2

    def test_with_clauses_does_not_mutate_original(self):
        formula = CNF([[1]])
        extended = formula.with_clauses([[2]])
        assert formula.num_clauses == 1
        assert extended.num_clauses == 2

    def test_evaluate(self):
        formula = CNF([[1, 2], [-1, 2]])
        assert formula.evaluate({1: True, 2: True})
        assert not formula.evaluate({1: True, 2: False})

    def test_variables_occurring(self):
        assert CNF([[1, -3]]).variables() == frozenset({1, 3})

    def test_equality(self):
        assert CNF([[1, 2]]) == CNF([[1, 2]])
        assert CNF([[1, 2]]) != CNF([[2, 1]])

    def test_str_of_empty_formula(self):
        assert str(CNF([])) == "TRUE"
