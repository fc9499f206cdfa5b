"""CNF formulas.

Variables are positive integers ``1..n`` (DIMACS convention).  A literal is
a non-zero integer: ``v`` for the positive literal of variable ``v`` and
``-v`` for its negation.  A clause is a disjunction of literals; a CNF
formula is a conjunction of clauses.  Assignments are dictionaries
``variable -> bool``.

This is the representation the hardness reductions of Section 5 consume: the
clause-encoding circuit of Fig. 5(b) is built directly from :class:`Clause`
objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.exceptions import SatError

__all__ = ["Literal", "Clause", "CNF"]

#: A literal is a non-zero int: ``v`` (positive) or ``-v`` (negated).
Literal = int


def _check_literal(literal: int) -> int:
    if not isinstance(literal, int) or literal == 0:
        raise SatError(f"literal must be a non-zero integer, got {literal!r}")
    return literal


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals."""

    literals: tuple[Literal, ...]

    def __init__(self, literals: Iterable[Literal]) -> None:
        values = tuple(_check_literal(literal) for literal in literals)
        object.__setattr__(self, "literals", values)

    @property
    def variables(self) -> frozenset[int]:
        """The variables occurring in the clause."""
        return frozenset(abs(literal) for literal in self.literals)

    @property
    def is_empty(self) -> bool:
        """An empty clause is unsatisfiable."""
        return not self.literals

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate under a *total* assignment of the clause's variables."""
        for literal in self.literals:
            variable = abs(literal)
            if variable not in assignment:
                raise SatError(f"assignment misses variable {variable}")
            value = assignment[variable]
            if (literal > 0) == value:
                return True
        return False

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        if not self.literals:
            return "()"
        return "(" + " | ".join(
            (f"x{literal}" if literal > 0 else f"~x{-literal}")
            for literal in self.literals
        ) + ")"


class CNF:
    """A conjunction of clauses over variables ``1..num_variables``.

    Args:
        clauses: the clause list; plain literal tuples are accepted.
        num_variables: total variable count; inferred from the clauses when
            omitted (useful for formulas with unused trailing variables when
            given explicitly).
    """

    def __init__(
        self,
        clauses: Iterable[Clause | Sequence[Literal]] = (),
        num_variables: int | None = None,
    ) -> None:
        self._clauses: list[Clause] = []
        for clause in clauses:
            if not isinstance(clause, Clause):
                clause = Clause(clause)
            self._clauses.append(clause)
        inferred = max(
            (max(clause.variables) for clause in self._clauses if clause.literals),
            default=0,
        )
        if num_variables is None:
            num_variables = inferred
        elif num_variables < inferred:
            raise SatError(
                f"num_variables={num_variables} but clauses mention variable {inferred}"
            )
        self._num_variables = num_variables

    # -- structure -----------------------------------------------------------
    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The clause list as an immutable tuple."""
        return tuple(self._clauses)

    @property
    def num_variables(self) -> int:
        """Number of variables ``n`` (variables are ``1..n``)."""
        return self._num_variables

    @property
    def num_clauses(self) -> int:
        """Number of clauses ``m``."""
        return len(self._clauses)

    def add_clause(self, clause: Clause | Sequence[Literal]) -> None:
        """Append a clause, growing the variable count if needed."""
        if not isinstance(clause, Clause):
            clause = Clause(clause)
        self._clauses.append(clause)
        if clause.literals:
            self._num_variables = max(self._num_variables, max(clause.variables))

    def with_clauses(self, clauses: Iterable[Clause | Sequence[Literal]]) -> "CNF":
        """A new formula with the given clauses appended."""
        result = CNF(self._clauses, self._num_variables)
        for clause in clauses:
            result.add_clause(clause)
        return result

    # -- semantics -----------------------------------------------------------
    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate under a total assignment."""
        return all(clause.evaluate(assignment) for clause in self._clauses)

    def variables(self) -> frozenset[int]:
        """The set of variables that actually occur in some clause."""
        occurring: set[int] = set()
        for clause in self._clauses:
            occurring |= clause.variables
        return frozenset(occurring)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNF):
            return NotImplemented
        return (
            self._num_variables == other._num_variables
            and self._clauses == other._clauses
        )

    def __repr__(self) -> str:
        return (
            f"<CNF variables={self._num_variables} clauses={len(self._clauses)}>"
        )

    def __str__(self) -> str:
        if not self._clauses:
            return "TRUE"
        return " & ".join(str(clause) for clause in self._clauses)
