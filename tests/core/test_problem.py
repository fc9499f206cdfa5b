"""Unit tests for MatchingResult."""

from __future__ import annotations

import pytest

from repro.circuits.line_permutation import LinePermutation
from repro.core.equivalence import EquivalenceType
from repro.core.problem import MatchingResult
from repro.exceptions import MatchingError


class TestMatchingResult:
    def test_witnesses_are_normalised(self):
        result = MatchingResult(
            EquivalenceType.NP_I, nu_x=[1, 0, 1], pi_x=[2, 0, 1]
        )
        assert result.nu_x == (True, False, True)
        assert isinstance(result.pi_x, LinePermutation)

    def test_missing_witness_accessors_raise(self):
        result = MatchingResult(EquivalenceType.I_N, nu_y=[True])
        with pytest.raises(MatchingError):
            result.require_nu_x()
        with pytest.raises(MatchingError):
            result.require_pi_x()

    def test_total_queries_sums_classical_and_quantum(self):
        result = MatchingResult(EquivalenceType.N_I, queries=3, quantum_queries=7)
        assert result.total_queries == 10

    def test_describe_mentions_class_and_witnesses(self):
        result = MatchingResult(
            EquivalenceType.I_NP,
            nu_y=[True, False],
            pi_y=[1, 0],
            queries=5,
        )
        text = result.describe()
        assert "I-NP" in text
        assert "10" in text  # rendered negation bits
        assert "queries=5" in text

    def test_metadata_defaults_to_empty_dict(self):
        first = MatchingResult(EquivalenceType.I_I)
        second = MatchingResult(EquivalenceType.I_I)
        first.metadata["x"] = 1
        assert second.metadata == {}

