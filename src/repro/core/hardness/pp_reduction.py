"""Theorem 3: UNIQUE-SAT reduces to P-P matching.

The trick is a dual-rail encoding: for every variable ``x_j`` a companion
variable ``y_j`` is introduced and the clauses ``(x_j OR y_j)`` and
``(~x_j OR ~y_j)`` force ``y_j = NOT x_j``.  The extended formula ``phi'``
over ``2n`` variables and ``m + 2n`` clauses is then encoded with the same
Fig. 5 construction, and the comparison circuit gets positive controls on
the first ``n`` lines and negative controls on lines ``n .. 4n+m-1`` (the
``y`` and clause-ancilla lines).

A valid P-P witness must keep every pass-through line a fixed point of the
composite permutation (so ``pi_y = pi_x^{-1}``); within that constraint the
only freedom is which member of each ``(x_j, y_j)`` pair lands in the
positive-control region of ``C2``, and that choice *is* the satisfying
assignment.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.line_permutation import LinePermutation
from repro.core.equivalence import EquivalenceType
from repro.core.hardness.encoding import (
    EncodingLayout,
    comparison_circuit,
    layout_for,
    unique_sat_encoding_circuit,
)
from repro.core.problem import MatchingResult
from repro.exceptions import MatchingError
from repro.sat.cnf import CNF, Clause

__all__ = [
    "PPInstance",
    "dual_rail_formula",
    "build_pp_instance",
    "pp_witness_from_assignment",
    "assignment_from_pp_witness",
]


@dataclass(frozen=True)
class PPInstance:
    """A P-P matching instance encoding a UNIQUE-SAT formula.

    Attributes:
        formula: the original CNF formula over ``n`` variables.
        dual_rail: the dual-rail extended formula ``phi'`` over ``2n``
            variables (``x_1..x_n`` keep their indices, ``y_j`` is variable
            ``n + j``).
        c1: the UNIQUE-SAT encoding circuit of ``phi'``.
        c2: the comparison circuit with the positive/negative control split
            of Theorem 3.
        layout: the shared line layout (of the dual-rail formula).
        num_original_variables: ``n``.
    """

    formula: CNF
    dual_rail: CNF
    c1: ReversibleCircuit
    c2: ReversibleCircuit
    layout: EncodingLayout
    num_original_variables: int

    @property
    def x_lines(self) -> tuple[int, ...]:
        """Lines carrying the original variables ``x_1..x_n``."""
        return self.layout.variable_lines[: self.num_original_variables]

    @property
    def positive_region(self) -> tuple[int, ...]:
        """Positions holding positive controls in ``C2`` (the first ``n``)."""
        return self.x_lines


def dual_rail_formula(formula: CNF) -> CNF:
    """The dual-rail extension ``phi'`` of Theorem 3.

    Variable ``y_j`` gets index ``n + j``; the added clauses force
    ``y_j = NOT x_j``, so ``phi'`` is satisfiable iff ``phi`` is and its
    models are in bijection with ``phi``'s.
    """
    n = formula.num_variables
    clauses = list(formula.clauses)
    for j in range(1, n + 1):
        y = n + j
        clauses.append(Clause([j, y]))
        clauses.append(Clause([-j, -y]))
    return CNF(clauses, 2 * n)


def build_pp_instance(formula: CNF) -> PPInstance:
    """Construct the Theorem 3 instance ``(C1, C2)`` for ``formula``."""
    extended = dual_rail_formula(formula)
    layout = layout_for(extended)
    c1, layout = unique_sat_encoding_circuit(extended, layout)
    n = formula.num_variables
    positive = layout.variable_lines[:n]
    negative = tuple(layout.variable_lines[n:]) + tuple(layout.clause_lines)
    c2 = comparison_circuit(layout, positive_lines=positive, negative_lines=negative)
    return PPInstance(formula, extended, c1, c2, layout, n)


def pp_witness_from_assignment(
    instance: PPInstance, assignment: Mapping[int, bool]
) -> MatchingResult:
    """The P-P witnesses corresponding to a satisfying assignment of ``phi``.

    For every pair ``(x_j, y_j)``: if ``x_j`` is True the pair stays in
    place; if it is False the two lines are swapped, moving ``x_j`` into the
    negative-control region and ``y_j`` into the positive one.  All other
    lines stay fixed, and ``pi_y`` is the inverse of ``pi_x`` (here the
    permutation is an involution, so they coincide).
    """
    n = instance.num_original_variables
    mapping = list(range(instance.layout.num_lines))
    for j in range(1, n + 1):
        if j not in assignment:
            raise MatchingError(f"assignment misses variable {j}")
        if not assignment[j]:
            x_line = instance.layout.variable_line(j)
            y_line = instance.layout.variable_line(n + j)
            mapping[x_line], mapping[y_line] = mapping[y_line], mapping[x_line]
    pi = LinePermutation(mapping)
    return MatchingResult(
        EquivalenceType.P_P,
        pi_x=pi,
        pi_y=pi.inverse(),
        metadata={"source": "planted-assignment"},
    )


def assignment_from_pp_witness(
    instance: PPInstance, result: MatchingResult
) -> dict[int, bool]:
    """Decode the candidate assignment of ``phi`` from a P-P witness.

    Variable ``x_j`` is True exactly when its line is routed into the
    positive-control region of ``C2`` by the input permutation.  As with the
    N-N reduction the decoded assignment is a candidate that the caller
    validates against ``instance.formula``.
    """
    pi_x = result.require_pi_x()
    positive = set(instance.positive_region)
    assignment: dict[int, bool] = {}
    for j in range(1, instance.num_original_variables + 1):
        line = instance.layout.variable_line(j)
        assignment[j] = pi_x[line] in positive
    return assignment
