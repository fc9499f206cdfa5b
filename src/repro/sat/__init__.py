"""SAT substrate for the hardness reductions of Section 5.

Theorem 2 and Theorem 3 reduce UNIQUE-SAT — deciding satisfiability of a CNF
formula promised to have at most one satisfying assignment — to the N-N and
P-P matching problems.  Exercising those reductions end to end needs a small
SAT toolbox, provided here:

* :mod:`repro.sat.cnf` — literals, clauses, CNF formulas, evaluation.
* :mod:`repro.sat.dimacs` — DIMACS CNF writer.
* :mod:`repro.sat.solver` — a DPLL solver with unit propagation and pure
  literal elimination, plus model enumeration (to certify uniqueness).
* :mod:`repro.sat.generators` — random k-SAT and planted UNIQUE-SAT
  instances.
* :mod:`repro.sat.valiant_vazirani` — the randomised XOR-hashing reduction
  from SAT to UNIQUE-SAT (Valiant–Vazirani), used to manufacture promise
  instances from arbitrary formulas.
"""

from __future__ import annotations

from repro.sat.cnf import CNF, Clause, Literal
from repro.sat.dimacs import cnf_to_dimacs
from repro.sat.generators import (
    planted_unique_sat,
    random_cnf,
    unsatisfiable_cnf,
)
from repro.sat.solver import SatResult, count_models, enumerate_models, solve
from repro.sat.valiant_vazirani import isolate_unique_solution

__all__ = [
    "Literal",
    "Clause",
    "CNF",
    "cnf_to_dimacs",
    "solve",
    "SatResult",
    "count_models",
    "enumerate_models",
    "random_cnf",
    "planted_unique_sat",
    "unsatisfiable_cnf",
    "isolate_unique_solution",
]
