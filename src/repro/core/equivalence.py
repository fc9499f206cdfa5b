"""The 16 X-Y equivalence classes, their lattice and their classification.

"X-Y equivalence" (Section 3) constrains how circuit ``C2`` may be wrapped
to obtain ``C1``: ``C1 = T_Y C2 T_X`` where the input-side transform ``T_X``
and output-side transform ``T_Y`` are each restricted by a *condition*:

* ``I`` — identity (no transform),
* ``N`` — a negation layer ``C_nu``,
* ``P`` — a line permutation ``C_pi``,
* ``NP`` — a negation followed by a permutation, ``C_pi C_nu``.

This module provides:

* :class:`SideCondition` and :class:`EquivalenceType` — the conditions and
  the 16 classes with convenient accessors;
* :func:`dominates` and :func:`domination_edges` — the Fig. 1 domination
  relation, in full or reduced to its Hasse diagram;
* :class:`Hardness` and :func:`classify` — the complexity classification of
  Fig. 1 (classically easy, quantum easy, conditionally easy, UNIQUE-SAT
  hard);
* :data:`TABLE1_ROWS` — the claimed query complexities of Table 1, used by
  the benchmark harness to print paper-vs-measured comparisons.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

__all__ = [
    "SideCondition",
    "EquivalenceType",
    "Hardness",
    "classify",
    "dominates",
    "domination_edges",
    "Table1Row",
    "TABLE1_ROWS",
]


class SideCondition(enum.Enum):
    """The condition allowed on one side (input or output) of the matching."""

    IDENTITY = "I"
    NEGATION = "N"
    PERMUTATION = "P"
    NEGATION_PERMUTATION = "NP"

    @property
    def allows_negation(self) -> bool:
        """Whether this condition may include a negation layer."""
        return self in (SideCondition.NEGATION, SideCondition.NEGATION_PERMUTATION)

    @property
    def allows_permutation(self) -> bool:
        """Whether this condition may include a line permutation."""
        return self in (
            SideCondition.PERMUTATION,
            SideCondition.NEGATION_PERMUTATION,
        )

    def subsumes(self, other: "SideCondition") -> bool:
        """Whether every transform allowed by ``other`` is allowed by ``self``."""
        if other is SideCondition.IDENTITY:
            return True
        if other is self:
            return True
        return self is SideCondition.NEGATION_PERMUTATION

    def __str__(self) -> str:
        return self.value


class EquivalenceType(enum.Enum):
    """One of the 16 X-Y equivalence classes (X = input side, Y = output side)."""

    I_I = ("I", "I")
    I_N = ("I", "N")
    I_P = ("I", "P")
    I_NP = ("I", "NP")
    N_I = ("N", "I")
    N_N = ("N", "N")
    N_P = ("N", "P")
    N_NP = ("N", "NP")
    P_I = ("P", "I")
    P_N = ("P", "N")
    P_P = ("P", "P")
    P_NP = ("P", "NP")
    NP_I = ("NP", "I")
    NP_N = ("NP", "N")
    NP_P = ("NP", "P")
    NP_NP = ("NP", "NP")

    def __init__(self, inputs: str, outputs: str) -> None:
        #: The paper's "X-Y" label, e.g. ``"NP-I"`` (built once per member:
        #: every cache key of a run reads it).
        self.label = f"{inputs}-{outputs}"

    @property
    def input_condition(self) -> SideCondition:
        """The condition X on the input side."""
        return SideCondition(self.value[0])

    @property
    def output_condition(self) -> SideCondition:
        """The condition Y on the output side."""
        return SideCondition(self.value[1])

    @classmethod
    def from_label(cls, label: str) -> "EquivalenceType":
        """Parse an "X-Y" label (case-insensitive) into an equivalence type."""
        member = _BY_LABEL.get(label)
        if member is None:
            member = _BY_LABEL.get(label.strip().upper().replace("_", "-"))
            if member is None:
                raise ValueError(f"unknown equivalence label {label!r}")
        return member

    def __str__(self) -> str:
        return self.label


#: Each class by its canonical "X-Y" label, for :meth:`EquivalenceType.from_label`.
_BY_LABEL: dict[str, EquivalenceType] = {
    member.label: member for member in EquivalenceType
}


class Hardness(enum.Enum):
    """Complexity classification of an equivalence class (Fig. 1)."""

    #: Trivial — nothing to compute (I-I).
    TRIVIAL = "trivial"
    #: Classical polynomial query algorithms exist in every regime of Table 1.
    CLASSICAL_EASY = "classical-easy"
    #: Classical polynomial only with inverse access; quantum polynomial
    #: without (the gray-blue ovals: N-I and NP-I).
    QUANTUM_EASY = "quantum-easy"
    #: Classical polynomial only when both inverses are available; quantum
    #: complexity open (the dashed oval: N-P).
    CONDITIONALLY_EASY = "conditionally-easy"
    #: No easier than UNIQUE-SAT (the rectangles).
    UNIQUE_SAT_HARD = "unique-sat-hard"


_CLASSIFICATION: dict[EquivalenceType, Hardness] = {
    EquivalenceType.I_I: Hardness.TRIVIAL,
    EquivalenceType.I_N: Hardness.CLASSICAL_EASY,
    EquivalenceType.I_P: Hardness.CLASSICAL_EASY,
    EquivalenceType.I_NP: Hardness.CLASSICAL_EASY,
    EquivalenceType.P_I: Hardness.CLASSICAL_EASY,
    EquivalenceType.P_N: Hardness.CLASSICAL_EASY,
    EquivalenceType.N_I: Hardness.QUANTUM_EASY,
    EquivalenceType.NP_I: Hardness.QUANTUM_EASY,
    EquivalenceType.N_P: Hardness.CONDITIONALLY_EASY,
    EquivalenceType.N_N: Hardness.UNIQUE_SAT_HARD,
    EquivalenceType.P_P: Hardness.UNIQUE_SAT_HARD,
    EquivalenceType.N_NP: Hardness.UNIQUE_SAT_HARD,
    EquivalenceType.NP_N: Hardness.UNIQUE_SAT_HARD,
    EquivalenceType.NP_P: Hardness.UNIQUE_SAT_HARD,
    EquivalenceType.P_NP: Hardness.UNIQUE_SAT_HARD,
    EquivalenceType.NP_NP: Hardness.UNIQUE_SAT_HARD,
}


def classify(equivalence: EquivalenceType) -> Hardness:
    """The Fig. 1 complexity classification of an equivalence class."""
    return _CLASSIFICATION[equivalence]


def dominates(upper: EquivalenceType, lower: EquivalenceType) -> bool:
    """Whether ``upper`` subsumes ``lower`` (edge direction of Fig. 1).

    ``upper`` dominates ``lower`` when every transform pair allowed by
    ``lower`` is also allowed by ``upper`` on both sides.
    """
    return upper.input_condition.subsumes(
        lower.input_condition
    ) and upper.output_condition.subsumes(lower.output_condition)


def domination_edges(hasse: bool = True) -> list[tuple[EquivalenceType, EquivalenceType]]:
    """The domination edges, optionally reduced to the Hasse diagram of Fig. 1.

    Edges point from the dominating (more general) class to the dominated
    (more specific) one, matching Fig. 1; self-loops are omitted.  With
    ``hasse`` an edge ``(u, w)`` is dropped when some ``v`` has ``u -> v``
    and ``v -> w`` (domination is transitive, so this is the transitive
    reduction).
    """
    edges = {
        (upper, lower)
        for upper in EquivalenceType
        for lower in EquivalenceType
        if upper is not lower and dominates(upper, lower)
    }
    if hasse:
        edges = {
            (upper, lower)
            for upper, lower in edges
            if not any(
                (upper, middle) in edges and (middle, lower) in edges
                for middle in EquivalenceType
            )
        }
    return sorted(edges, key=lambda edge: (edge[0].label, edge[1].label))


# ---------------------------------------------------------------------------
# Table 1: claimed query complexities
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1.

    Attributes:
        inverse_available: whether the row assumes an inverse circuit.
        requires_both_inverses: True for the ``**`` footnote (N-P needs both).
        equivalences: the equivalence classes covered by the row.
        paradigm: ``"classical"`` or ``"quantum"``.
        complexity: the bound as printed in the paper.
        bound: a callable ``(n, epsilon) -> float`` giving the claimed
            asymptotic bound (up to constant factors) used by the scaling
            fits in the benchmark harness.
    """

    inverse_available: bool
    requires_both_inverses: bool
    equivalences: tuple[EquivalenceType, ...]
    paradigm: str
    complexity: str
    bound: Callable[[int, float], float]


TABLE1_ROWS: tuple[Table1Row, ...] = (
    Table1Row(
        inverse_available=True,
        requires_both_inverses=False,
        equivalences=(EquivalenceType.N_I, EquivalenceType.I_N),
        paradigm="classical",
        complexity="O(1)",
        bound=lambda n, eps: 1.0,
    ),
    Table1Row(
        inverse_available=True,
        requires_both_inverses=False,
        equivalences=(
            EquivalenceType.I_P,
            EquivalenceType.P_I,
            EquivalenceType.P_N,
            EquivalenceType.I_NP,
            EquivalenceType.NP_I,
        ),
        paradigm="classical",
        complexity="O(log n)",
        bound=lambda n, eps: max(1.0, math.log2(max(n, 2))),
    ),
    Table1Row(
        inverse_available=True,
        requires_both_inverses=True,
        equivalences=(EquivalenceType.N_P,),
        paradigm="classical",
        complexity="O(log n)",
        bound=lambda n, eps: max(1.0, math.log2(max(n, 2))),
    ),
    Table1Row(
        inverse_available=False,
        requires_both_inverses=False,
        equivalences=(EquivalenceType.I_N,),
        paradigm="classical",
        complexity="O(1)",
        bound=lambda n, eps: 1.0,
    ),
    Table1Row(
        inverse_available=False,
        requires_both_inverses=False,
        equivalences=(EquivalenceType.I_P, EquivalenceType.I_NP),
        paradigm="classical",
        complexity="O(log n + log(1/eps))",
        bound=lambda n, eps: math.log2(max(n, 2)) + math.log2(1.0 / eps),
    ),
    Table1Row(
        inverse_available=False,
        requires_both_inverses=False,
        equivalences=(EquivalenceType.P_I, EquivalenceType.P_N),
        paradigm="classical",
        complexity="O(n)",
        bound=lambda n, eps: float(n),
    ),
    Table1Row(
        inverse_available=False,
        requires_both_inverses=False,
        equivalences=(EquivalenceType.N_I,),
        paradigm="quantum",
        complexity="O(n log(1/eps))",
        bound=lambda n, eps: n * math.log2(1.0 / eps),
    ),
    Table1Row(
        inverse_available=False,
        requires_both_inverses=False,
        equivalences=(EquivalenceType.NP_I,),
        paradigm="quantum",
        complexity="O(n^2 log(1/eps))",
        bound=lambda n, eps: n * n * math.log2(1.0 / eps),
    ),
)
