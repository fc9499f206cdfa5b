"""Unit tests for the DPLL solver and model enumeration."""

from __future__ import annotations

import itertools

import pytest

from repro.sat.cnf import CNF
from repro.sat.generators import random_cnf
from repro.sat.solver import count_models, enumerate_models, solve


def brute_force_models(formula: CNF) -> list[dict[int, bool]]:
    models = []
    for bits in itertools.product([False, True], repeat=formula.num_variables):
        assignment = {index + 1: value for index, value in enumerate(bits)}
        if formula.evaluate(assignment):
            models.append(assignment)
    return models


class TestSolve:
    def test_trivially_satisfiable(self):
        result = solve(CNF([[1]]))
        assert result.satisfiable
        assert result.assignment[1] is True

    def test_empty_formula_is_satisfiable(self):
        assert solve(CNF([], num_variables=2)).satisfiable

    def test_empty_clause_is_unsatisfiable(self):
        assert not solve(CNF([[1], []])).satisfiable

    def test_simple_unsat_core(self):
        formula = CNF([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        assert not solve(formula).satisfiable

    def test_model_satisfies_formula(self):
        formula = CNF([[1, -2, 3], [-1, 2], [2, -3]])
        result = solve(formula)
        assert result.satisfiable
        assert formula.evaluate(result.assignment)

    def test_model_is_total(self):
        formula = CNF([[1]], num_variables=4)
        result = solve(formula)
        assert set(result.assignment) == {1, 2, 3, 4}

    def test_agreement_with_brute_force(self, rng):
        for _ in range(25):
            formula = random_cnf(5, 12, 3, rng)
            assert solve(formula).satisfiable == bool(brute_force_models(formula))

    def test_pure_literal_toggle_agrees(self, rng):
        for _ in range(10):
            formula = random_cnf(5, 10, 3, rng)
            assert (
                solve(formula, use_pure_literal=True).satisfiable
                == solve(formula, use_pure_literal=False).satisfiable
            )

    def test_statistics_are_reported(self):
        formula = CNF([[1, 2], [-1, 2], [1, -2]])
        result = solve(formula)
        assert result.propagations >= 0
        assert result.decisions >= 0


class TestEnumeration:
    def test_enumerate_matches_brute_force(self, rng):
        for _ in range(10):
            formula = random_cnf(4, 8, 3, rng)
            expected = brute_force_models(formula)
            found = list(enumerate_models(formula))
            assert len(found) == len(expected)
            canonical = {tuple(sorted(model.items())) for model in expected}
            assert {tuple(sorted(model.items())) for model in found} == canonical

    def test_enumerate_respects_limit(self):
        formula = CNF([], num_variables=3)
        assert len(list(enumerate_models(formula, limit=3))) == 3

    def test_enumerate_rejects_bad_limit(self):
        from repro.exceptions import SatError

        with pytest.raises(SatError):
            list(enumerate_models(CNF([[1]]), limit=0))

    def test_count_models(self):
        formula = CNF([[1, 2]])
        assert count_models(formula) == 3
