"""A DPLL SAT solver with unit propagation and pure-literal elimination.

The solver is deliberately simple — the hardness experiments use formulas
with at most a few dozen variables, where DPLL with unit propagation is more
than enough — but it is a complete decision procedure, and it doubles as a
model enumerator so UNIQUE-SAT promises can be *certified* rather than
assumed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.exceptions import SatError
from repro.sat.cnf import CNF

__all__ = ["SatResult", "solve", "enumerate_models", "count_models"]


@dataclass
class SatResult:
    """Outcome of a satisfiability check.

    Attributes:
        satisfiable: whether a satisfying assignment exists.
        assignment: a satisfying assignment (total over ``1..n``) when one
            exists, else ``None``.
        decisions: number of branching decisions the search made.
        propagations: number of unit propagations performed.
    """

    satisfiable: bool
    assignment: dict[int, bool] | None = None
    decisions: int = 0
    propagations: int = 0


@dataclass
class _SearchStats:
    decisions: int = 0
    propagations: int = 0


def _simplify(
    clauses: list[frozenset[int]], literal: int
) -> list[frozenset[int]] | None:
    """Assign ``literal`` true: drop satisfied clauses, shrink the others.

    Returns ``None`` when an empty clause (conflict) appears.
    """
    result: list[frozenset[int]] = []
    for clause in clauses:
        if literal in clause:
            continue
        if -literal in clause:
            reduced = clause - {-literal}
            if not reduced:
                return None
            result.append(reduced)
        else:
            result.append(clause)
    return result


def _unit_propagate(
    clauses: list[frozenset[int]],
    assignment: dict[int, bool],
    stats: _SearchStats,
) -> list[frozenset[int]] | None:
    """Repeatedly assign unit clauses.  Returns ``None`` on conflict."""
    while True:
        unit = next((clause for clause in clauses if len(clause) == 1), None)
        if unit is None:
            return clauses
        literal = next(iter(unit))
        assignment[abs(literal)] = literal > 0
        stats.propagations += 1
        clauses = _simplify(clauses, literal)
        if clauses is None:
            return None


def _pure_literals(clauses: list[frozenset[int]]) -> list[int]:
    polarity: dict[int, int] = {}
    for clause in clauses:
        for literal in clause:
            variable = abs(literal)
            sign = 1 if literal > 0 else -1
            if variable not in polarity:
                polarity[variable] = sign
            elif polarity[variable] != sign:
                polarity[variable] = 0
    return [variable * sign for variable, sign in polarity.items() if sign != 0]


def _dpll(
    clauses: list[frozenset[int]],
    assignment: dict[int, bool],
    stats: _SearchStats,
    use_pure_literal: bool,
) -> dict[int, bool] | None:
    clauses = _unit_propagate(clauses, assignment, stats)
    if clauses is None:
        return None
    if use_pure_literal:
        pures = _pure_literals(clauses)
        while pures:
            for literal in pures:
                assignment[abs(literal)] = literal > 0
                clauses = _simplify(clauses, literal)
                if clauses is None:  # pragma: no cover - pure literals never conflict
                    return None
            clauses = _unit_propagate(clauses, assignment, stats)
            if clauses is None:
                return None
            pures = _pure_literals(clauses)
    if not clauses:
        return assignment
    # Branch on the first literal of the shortest clause.
    shortest = min(clauses, key=len)
    literal = next(iter(shortest))
    stats.decisions += 1
    for choice in (literal, -literal):
        branch_clauses = _simplify(clauses, choice)
        if branch_clauses is None:
            continue
        branch_assignment = dict(assignment)
        branch_assignment[abs(choice)] = choice > 0
        model = _dpll(branch_clauses, branch_assignment, stats, use_pure_literal)
        if model is not None:
            return model
    return None


def _complete(assignment: dict[int, bool], num_variables: int) -> dict[int, bool]:
    """Extend a partial model to a total one (unassigned variables -> False)."""
    return {
        variable: assignment.get(variable, False)
        for variable in range(1, num_variables + 1)
    }


def solve(formula: CNF, use_pure_literal: bool = True) -> SatResult:
    """Decide satisfiability of ``formula`` and return a model if one exists."""
    clauses = [frozenset(clause.literals) for clause in formula]
    if any(not clause for clause in clauses):
        return SatResult(satisfiable=False)
    stats = _SearchStats()
    assignment: dict[int, bool] = {}
    model = _dpll(clauses, assignment, stats, use_pure_literal)
    if model is None:
        return SatResult(
            satisfiable=False,
            decisions=stats.decisions,
            propagations=stats.propagations,
        )
    return SatResult(
        satisfiable=True,
        assignment=_complete(model, formula.num_variables),
        decisions=stats.decisions,
        propagations=stats.propagations,
    )


def enumerate_models(formula: CNF, limit: int | None = None) -> Iterator[dict[int, bool]]:
    """Yield satisfying assignments (total over ``1..n``), up to ``limit``.

    Enumeration works by repeatedly solving and adding a blocking clause for
    the found model, so it is exponential in the worst case — fine for the
    promise-certification sizes used here.
    """
    if limit is not None and limit <= 0:
        raise SatError("limit must be positive when given")
    blocked = CNF(formula.clauses, formula.num_variables)
    found = 0
    while True:
        result = solve(blocked)
        if not result.satisfiable:
            return
        assert result.assignment is not None
        yield dict(result.assignment)
        found += 1
        if limit is not None and found >= limit:
            return
        blocking = [
            (-variable if value else variable)
            for variable, value in result.assignment.items()
        ]
        blocked = blocked.with_clauses([blocking])


def count_models(formula: CNF, limit: int | None = None) -> int:
    """Count satisfying assignments (stopping early at ``limit`` if given)."""
    return sum(1 for _ in enumerate_models(formula, limit))
