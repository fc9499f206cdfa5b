"""Unit tests for the Theorem 3 reduction (UNIQUE-SAT -> P-P matching)."""

from __future__ import annotations

import random

import pytest

from repro.core.equivalence import EquivalenceType
from repro.core.hardness.pp_reduction import (
    assignment_from_pp_witness,
    build_pp_instance,
    dual_rail_formula,
    pp_witness_from_assignment,
)
from repro.core.verify import reconstructed_circuit, verify_match
from repro.exceptions import MatchingError
from repro.sat.generators import planted_unique_sat
from repro.sat.solver import count_models, solve


class TestDualRail:
    def test_adds_n_variables_and_2n_clauses(self, rng):
        formula, _ = planted_unique_sat(3, 4, rng=rng)
        extended = dual_rail_formula(formula)
        assert extended.num_variables == 6
        assert extended.num_clauses == formula.num_clauses + 6

    def test_dual_rail_preserves_satisfiability_and_uniqueness(self, rng):
        formula, model = planted_unique_sat(3, 4, rng=rng)
        extended = dual_rail_formula(formula)
        assert count_models(extended, limit=2) == 1
        extended_model = solve(extended).assignment
        for j in range(1, 4):
            assert extended_model[j] == model[j]
            assert extended_model[3 + j] == (not model[j])


class TestInstanceConstruction:
    def test_line_budget_matches_theorem(self, rng):
        formula, _ = planted_unique_sat(2, 3, rng=rng)
        instance = build_pp_instance(formula)
        n, m = 2, 3
        # 2n variable lines + (m + 2n) clause lines + b_b + b_z.
        assert instance.c1.num_lines == 2 * n + (m + 2 * n) + 2
        assert instance.c2.num_gates == 1

    def test_control_regions(self, rng):
        formula, _ = planted_unique_sat(2, 3, rng=rng)
        instance = build_pp_instance(formula)
        gate = instance.c2.gates[0]
        positives = {c.line for c in gate.controls if c.positive}
        negatives = {c.line for c in gate.controls if not c.positive}
        assert positives == set(instance.x_lines)
        y_lines = instance.layout.variable_lines[instance.num_original_variables :]
        assert negatives == set(y_lines) | set(instance.layout.clause_lines)
        assert instance.layout.helper_line not in positives | negatives


class TestWitnessEncoding:
    def test_planted_model_gives_valid_pp_witness(self, rng):
        formula, model = planted_unique_sat(2, 3, rng=rng)
        instance = build_pp_instance(formula)
        witness = pp_witness_from_assignment(instance, model)
        # Full exhaustive verification is 2^(4n+m+2) = 2^13 inputs here.
        assert verify_match(instance.c1, instance.c2, EquivalenceType.P_P, witness)

    def test_larger_instance_verified_by_sampling(self, rng):
        formula, model = planted_unique_sat(3, 4, rng=rng)
        instance = build_pp_instance(formula)
        witness = pp_witness_from_assignment(instance, model)
        reconstruction = reconstructed_circuit(instance.c2, witness)
        sampler = random.Random(11)
        for _ in range(400):
            probe = sampler.getrandbits(instance.layout.num_lines)
            assert reconstruction.simulate(probe) == instance.c1.simulate(probe)

    def test_decoding_inverts_encoding(self, rng):
        formula, model = planted_unique_sat(3, 4, rng=rng)
        instance = build_pp_instance(formula)
        witness = pp_witness_from_assignment(instance, model)
        assert assignment_from_pp_witness(instance, witness) == model

    def test_witness_is_involution_swapping_dual_rails(self, rng):
        formula, model = planted_unique_sat(3, 4, rng=rng)
        instance = build_pp_instance(formula)
        witness = pp_witness_from_assignment(instance, model)
        assert witness.pi_x == witness.pi_y  # involution: inverse equals itself
        moved = [line for line in range(instance.layout.num_lines)
                 if witness.pi_x[line] != line]
        expected_moved = {
            instance.layout.variable_line(j)
            for j, value in model.items()
            if not value
        } | {
            instance.layout.variable_line(instance.num_original_variables + j)
            for j, value in model.items()
            if not value
        }
        assert set(moved) == expected_moved

    def test_incomplete_assignment_rejected(self, rng):
        formula, model = planted_unique_sat(2, 3, rng=rng)
        instance = build_pp_instance(formula)
        partial = dict(model)
        partial.pop(2)
        with pytest.raises(MatchingError):
            pp_witness_from_assignment(instance, partial)

    def test_wrong_permutation_does_not_match(self, rng):
        formula, model = planted_unique_sat(2, 3, rng=rng)
        instance = build_pp_instance(formula)
        flipped_model = dict(model)
        flipped_model[1] = not flipped_model[1]
        wrong = pp_witness_from_assignment(instance, flipped_model)
        assert not verify_match(
            instance.c1, instance.c2, EquivalenceType.P_P, wrong
        )
