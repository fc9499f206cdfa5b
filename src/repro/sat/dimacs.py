"""DIMACS CNF writer.

The DIMACS format is the lingua franca of SAT solvers::

    c a comment
    p cnf 3 2
    1 -2 0
    2 3 0

The writer emits ``c`` comment lines, the ``p cnf`` header and one
zero-terminated line per clause.
"""

from __future__ import annotations

from repro.sat.cnf import CNF

__all__ = ["cnf_to_dimacs"]


def cnf_to_dimacs(formula: CNF, comment: str | None = None) -> str:
    """Serialise a :class:`CNF` to DIMACS text."""
    lines = []
    if comment:
        for comment_line in comment.splitlines():
            lines.append(f"c {comment_line}")
    lines.append(f"p cnf {formula.num_variables} {formula.num_clauses}")
    for clause in formula:
        lines.append(" ".join(str(literal) for literal in clause) + " 0")
    return "\n".join(lines) + "\n"
