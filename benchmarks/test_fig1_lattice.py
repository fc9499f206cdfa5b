"""FIG1 — reproduce Figure 1: domination lattice and complexity classes.

The "measurement" here is structural: the domination DAG is rebuilt from the
side-condition semantics, reduced to its Hasse diagram, and checked against
the figure's classification (which classes are easy, quantum-easy,
conditional, UNIQUE-SAT-hard).  The benchmark times the Hasse reduction.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core import (
    EquivalenceType,
    Hardness,
    classify,
    dominates,
    domination_edges,
)

#: The classification exactly as drawn in Figure 1.
FIG1_EXPECTED = {
    "I-I": Hardness.TRIVIAL,
    "I-N": Hardness.CLASSICAL_EASY,
    "I-P": Hardness.CLASSICAL_EASY,
    "I-NP": Hardness.CLASSICAL_EASY,
    "P-I": Hardness.CLASSICAL_EASY,
    "P-N": Hardness.CLASSICAL_EASY,
    "N-I": Hardness.QUANTUM_EASY,
    "NP-I": Hardness.QUANTUM_EASY,
    "N-P": Hardness.CONDITIONALLY_EASY,
    "N-N": Hardness.UNIQUE_SAT_HARD,
    "P-P": Hardness.UNIQUE_SAT_HARD,
    "N-NP": Hardness.UNIQUE_SAT_HARD,
    "NP-N": Hardness.UNIQUE_SAT_HARD,
    "NP-P": Hardness.UNIQUE_SAT_HARD,
    "P-NP": Hardness.UNIQUE_SAT_HARD,
    "NP-NP": Hardness.UNIQUE_SAT_HARD,
}


def test_fig1_lattice_and_classification(benchmark):
    edges = domination_edges(hasse=False)
    nodes = {node for edge in edges for node in edge}

    assert nodes == set(EquivalenceType)
    # Domination is transitive, so acyclic means no edge in both directions.
    assert not any((lower, upper) in edges for upper, lower in edges)

    measured = {e.label: classify(e) for e in EquivalenceType}
    assert measured == FIG1_EXPECTED

    # Hardness propagates upward along domination edges.
    for upper, lower in edges:
        if classify(lower) is Hardness.UNIQUE_SAT_HARD:
            assert classify(upper) is Hardness.UNIQUE_SAT_HARD

    hasse = benchmark(domination_edges, hasse=True)
    rows = [
        [e.label, classify(e).value, ", ".join(sorted(b.label for a, b in hasse if a is e))]
        for e in EquivalenceType
    ]
    emit(
        "Figure 1: domination lattice (Hasse covers) and classification",
        format_table(["class", "hardness", "covers"], rows),
    )

    # Structural shape of the figure: one top (NP-NP), one bottom (I-I).
    tops = [n for n in EquivalenceType if not any(b is n for _, b in edges)]
    bottoms = [n for n in EquivalenceType if not any(a is n for a, _ in edges)]
    assert tops == [EquivalenceType.NP_NP]
    assert bottoms == [EquivalenceType.I_I]
    # Every class sits on a chain from NP-NP to I-I.
    for node in EquivalenceType:
        if node is not EquivalenceType.NP_NP:
            assert dominates(EquivalenceType.NP_NP, node)
        if node is not EquivalenceType.I_I:
            assert dominates(node, EquivalenceType.I_I)
