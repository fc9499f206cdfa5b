"""Unit tests for CNF instance generators."""

from __future__ import annotations

import pytest

from repro.exceptions import SatError
from repro.sat.generators import planted_unique_sat, random_cnf, unsatisfiable_cnf
from repro.sat.solver import count_models, solve


class TestRandomCnf:
    def test_shape(self, rng):
        formula = random_cnf(6, 14, 3, rng)
        assert formula.num_variables == 6
        assert formula.num_clauses == 14
        assert all(len(clause) == 3 for clause in formula)

    def test_clause_size_cannot_exceed_variables(self):
        with pytest.raises(SatError):
            random_cnf(2, 3, clause_size=4)

    def test_seeded_generation_is_reproducible(self):
        assert random_cnf(5, 8, rng=11) == random_cnf(5, 8, rng=11)


class TestPlantedUniqueSat:
    def test_planted_model_is_unique(self, rng):
        for _ in range(5):
            formula, model = planted_unique_sat(5, 8, rng=rng)
            assert formula.evaluate(model)
            assert count_models(formula, limit=2) == 1

    def test_solver_recovers_planted_model(self, rng):
        formula, model = planted_unique_sat(6, 10, rng=rng)
        result = solve(formula)
        assert result.satisfiable
        assert result.assignment == model

    def test_reproducible_with_seed(self):
        first = planted_unique_sat(4, 6, rng=3)
        second = planted_unique_sat(4, 6, rng=3)
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestUnsatisfiableCnf:
    def test_is_unsatisfiable(self, rng):
        for padding in (0, 4):
            formula = unsatisfiable_cnf(4, padding, rng=rng)
            assert count_models(formula, limit=1) == 0

    def test_needs_two_variables(self):
        with pytest.raises(SatError):
            unsatisfiable_cnf(1)
