"""Unit tests for the equivalence classes, lattice and Table 1 metadata."""

from __future__ import annotations

import math

import pytest

from repro.core.equivalence import (
    TABLE1_ROWS,
    EquivalenceType,
    Hardness,
    SideCondition,
    classify,
    dominates,
    domination_edges,
)


class TestSideCondition:
    def test_allows_flags(self):
        assert not SideCondition.IDENTITY.allows_negation
        assert SideCondition.NEGATION.allows_negation
        assert not SideCondition.NEGATION.allows_permutation
        assert SideCondition.PERMUTATION.allows_permutation
        assert SideCondition.NEGATION_PERMUTATION.allows_negation
        assert SideCondition.NEGATION_PERMUTATION.allows_permutation

    def test_subsumption_order(self):
        assert SideCondition.NEGATION.subsumes(SideCondition.IDENTITY)
        assert SideCondition.NEGATION_PERMUTATION.subsumes(SideCondition.PERMUTATION)
        assert not SideCondition.NEGATION.subsumes(SideCondition.PERMUTATION)
        assert not SideCondition.PERMUTATION.subsumes(SideCondition.NEGATION)
        assert SideCondition.IDENTITY.subsumes(SideCondition.IDENTITY)


class TestEquivalenceType:
    def test_sixteen_classes(self):
        assert len(EquivalenceType) == 16

    def test_labels_and_parsing(self):
        assert EquivalenceType.NP_I.label == "NP-I"
        assert EquivalenceType.from_label("np-i") is EquivalenceType.NP_I
        assert EquivalenceType.from_label("N_P") is EquivalenceType.N_P

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            EquivalenceType.from_label("Q-Q")

    def test_side_conditions(self):
        assert EquivalenceType.N_P.input_condition is SideCondition.NEGATION
        assert EquivalenceType.N_P.output_condition is SideCondition.PERMUTATION


class TestDomination:
    def test_np_np_dominates_everything(self):
        for other in EquivalenceType:
            assert dominates(EquivalenceType.NP_NP, other)

    def test_everything_dominates_i_i(self):
        for other in EquivalenceType:
            assert dominates(other, EquivalenceType.I_I)

    def test_incomparable_classes(self):
        assert not dominates(EquivalenceType.N_I, EquivalenceType.I_N)
        assert not dominates(EquivalenceType.I_N, EquivalenceType.N_I)
        assert not dominates(EquivalenceType.P_P, EquivalenceType.N_N)

    def test_lattice_node_count_and_acyclicity(self):
        edges = domination_edges(hasse=False)
        assert {node for edge in edges for node in edge} == set(EquivalenceType)
        # Domination is transitive, so acyclic means no edge in both directions.
        assert not any((lower, upper) in edges for upper, lower in edges)

    def test_lattice_edge_count(self):
        # Each side condition has 9 "subsumes" pairs (4 reflexive + 5 strict:
        # N>=I, P>=I, NP>=I, NP>=N, NP>=P).  The product order therefore has
        # 9 * 9 = 81 pairs, of which 16 are reflexive: 65 strict dominations.
        assert len(domination_edges(hasse=False)) == 65

    def test_hasse_diagram_equals_networkx_transitive_reduction(self):
        nx = pytest.importorskip("networkx")
        graph = nx.DiGraph(domination_edges(hasse=False))
        reference = sorted(
            nx.transitive_reduction(graph).edges(),
            key=lambda edge: (edge[0].label, edge[1].label),
        )
        assert domination_edges(hasse=True) == reference

    def test_hasse_diagram_matches_fig1_structure(self):
        edges = domination_edges(hasse=True)
        # Figure 1's covering relation: each node covers the classes obtained
        # by weakening exactly one side by one step; NP-NP covers 4 classes.
        covers_of_top = [b for a, b in edges if a is EquivalenceType.NP_NP]
        assert sorted(c.label for c in covers_of_top) == [
            "N-NP",
            "NP-N",
            "NP-P",
            "P-NP",
        ]
        covers_of_ii = [a for a, b in edges if b is EquivalenceType.I_I]
        assert sorted(c.label for c in covers_of_ii) == ["I-N", "I-P", "N-I", "P-I"]

    def test_hardness_propagates_upward(self):
        """Any class dominating a UNIQUE-SAT-hard class is itself hard."""
        for upper in EquivalenceType:
            for lower in EquivalenceType:
                if (
                    dominates(upper, lower)
                    and classify(lower) is Hardness.UNIQUE_SAT_HARD
                ):
                    assert classify(upper) is Hardness.UNIQUE_SAT_HARD


class TestClassification:
    def test_fig1_easy_classes(self):
        assert classify(EquivalenceType.I_I) is Hardness.TRIVIAL
        for label in ("I-N", "I-P", "I-NP", "P-I", "P-N"):
            assert classify(EquivalenceType.from_label(label)) is Hardness.CLASSICAL_EASY

    def test_fig1_quantum_easy_classes(self):
        assert classify(EquivalenceType.N_I) is Hardness.QUANTUM_EASY
        assert classify(EquivalenceType.NP_I) is Hardness.QUANTUM_EASY

    def test_fig1_conditional_class(self):
        assert classify(EquivalenceType.N_P) is Hardness.CONDITIONALLY_EASY

    def test_fig1_hard_classes(self):
        hard = {"N-N", "P-P", "N-NP", "NP-N", "NP-P", "P-NP", "NP-NP"}
        for label in hard:
            assert (
                classify(EquivalenceType.from_label(label))
                is Hardness.UNIQUE_SAT_HARD
            )

    def test_hard_classes_dominate_nn_or_pp(self):
        for equivalence in EquivalenceType:
            if classify(equivalence) is Hardness.UNIQUE_SAT_HARD:
                assert dominates(equivalence, EquivalenceType.N_N) or dominates(
                    equivalence, EquivalenceType.P_P
                )


class TestTable1Rows:
    def test_every_tractable_class_is_covered(self):
        covered = set()
        for row in TABLE1_ROWS:
            covered.update(row.equivalences)
        expected = {
            EquivalenceType.from_label(label)
            for label in ("I-N", "I-P", "I-NP", "P-I", "P-N", "N-I", "NP-I", "N-P")
        }
        assert expected <= covered

    def test_bounds_are_monotone_in_n(self):
        for row in TABLE1_ROWS:
            assert row.bound(16, 1e-3) >= row.bound(4, 1e-3) - 1e-9

    def test_quantum_rows_only_without_inverse(self):
        for row in TABLE1_ROWS:
            if row.paradigm == "quantum":
                assert not row.inverse_available

    def test_complexity_strings_match_bound_shapes(self):
        for row in TABLE1_ROWS:
            if row.complexity == "O(1)":
                assert row.bound(4, 1e-3) == row.bound(64, 1e-3)
            if row.complexity == "O(log n)":
                assert row.bound(64, 1e-3) == pytest.approx(math.log2(64))
