"""The Valiant–Vazirani isolation reduction (SAT -> UNIQUE-SAT).

Section 5 of the paper leans on the classical result that SAT is randomly
reducible to UNIQUE-SAT [Valiant & Vazirani 1985]: conjoining a satisfiable
formula with ``k`` random XOR (parity) constraints, for a randomly chosen
``k``, leaves exactly one satisfying assignment with probability at least
1/(8n).  This module implements that reduction so the hardness experiments
can start from arbitrary formulas instead of only planted instances.

XOR constraints are expressed in CNF through standard Tseitin chaining with
fresh auxiliary variables, so the output is again a plain CNF formula.
"""

from __future__ import annotations

import random as _random

from repro.exceptions import SatError
from repro.sat.cnf import CNF, Clause
from repro.sat.solver import count_models

__all__ = ["add_random_xor_constraint", "isolate_unique_solution"]


def _coerce_rng(rng: _random.Random | int | None) -> _random.Random:
    if rng is None:
        return _random.Random()
    if isinstance(rng, int):
        return _random.Random(rng)
    return rng


def _xor_clauses(variables: list[int], parity: bool, next_aux: int) -> tuple[list[Clause], int]:
    """CNF clauses enforcing ``XOR(variables) == parity``.

    The XOR is chained through fresh auxiliary variables starting at
    ``next_aux``; the updated next-free-variable index is returned.
    """
    if not variables:
        if parity:
            # 0 == 1 is unsatisfiable: encode with an empty clause.
            return [Clause([])], next_aux
        return [], next_aux
    # Chain: aux_0 = v_0, aux_i = aux_{i-1} XOR v_i, final aux forced to parity.
    clauses: list[Clause] = []
    carry = variables[0]
    for variable in variables[1:]:
        aux = next_aux
        next_aux += 1
        # aux <-> carry XOR variable
        clauses.extend(
            [
                Clause([-aux, carry, variable]),
                Clause([-aux, -carry, -variable]),
                Clause([aux, -carry, variable]),
                Clause([aux, carry, -variable]),
            ]
        )
        carry = aux
    clauses.append(Clause([carry if parity else -carry]))
    return clauses, next_aux


def add_random_xor_constraint(
    formula: CNF, rng: _random.Random | int | None = None
) -> CNF:
    """Conjoin one uniformly random XOR constraint over the formula's variables."""
    rng = _coerce_rng(rng)
    variables = [
        variable
        for variable in range(1, formula.num_variables + 1)
        if rng.getrandbits(1)
    ]
    parity = bool(rng.getrandbits(1))
    clauses, _ = _xor_clauses(variables, parity, formula.num_variables + 1)
    return formula.with_clauses(clauses)


# The Valiant-Vazirani step that turns any satisfiable CNF into a
# UNIQUE-SAT promise instance for the Section 5 reductions.
# repro: allow[drift-test-only-api]
def isolate_unique_solution(
    formula: CNF,
    rng: _random.Random | int | None = None,
    max_rounds: int = 400,
) -> CNF:
    """Produce a UNIQUE-SAT instance equisatisfiable-ish with ``formula``.

    Repeatedly samples a constraint count ``k`` and ``k`` random XOR
    constraints until the resulting formula has exactly one model (checked
    with the model counter, which keeps the output an honest promise
    instance).  Requires ``formula`` to be satisfiable.

    Raises:
        SatError: if the formula is unsatisfiable or isolation keeps failing
            for ``max_rounds`` rounds (astronomically unlikely for the sizes
            used in the experiments).
    """
    rng = _coerce_rng(rng)
    if count_models(formula, limit=1) == 0:
        raise SatError("cannot isolate a solution of an unsatisfiable formula")
    if count_models(formula, limit=2) == 1:
        return formula
    num_variables = formula.num_variables
    for _ in range(max_rounds):
        k = rng.randint(1, num_variables)
        candidate = formula
        for _ in range(k):
            candidate = add_random_xor_constraint(candidate, rng)
        models = count_models(candidate, limit=2)
        if models == 1:
            return candidate
    raise SatError(f"failed to isolate a unique solution in {max_rounds} rounds")
