"""Unit tests for the DIMACS writer."""

from __future__ import annotations

from repro.sat.cnf import CNF
from repro.sat.dimacs import cnf_to_dimacs

EXAMPLE = """c a small instance
p cnf 3 2
1 -2 0
2 3 0
"""


class TestWriting:
    def test_writes_header_and_zero_terminated_clauses(self):
        formula = CNF([[1, -2], [2, 3]], 3)
        assert cnf_to_dimacs(formula, comment="a small instance") == EXAMPLE

    def test_comment_included(self):
        text = cnf_to_dimacs(CNF([[1]]), comment="hello\nworld")
        assert text.startswith("c hello\nc world\n")

    def test_no_comment_starts_at_the_header(self):
        text = cnf_to_dimacs(CNF([[-1, 2]], 2))
        assert text == "p cnf 2 1\n-1 2 0\n"

    def test_empty_formula_is_a_bare_header(self):
        assert cnf_to_dimacs(CNF([], 4)) == "p cnf 4 0\n"
