"""Quantum substrate: dense state-vector simulation and the swap test.

The paper's quantum algorithms (Section 4.5 and 4.6) only need three
ingredients from a quantum computer:

1. preparing product states whose qubits are each ``|0>``, ``|1>``, ``|+>``
   or ``|->``;
2. running the (black-box) reversible circuits on such states — a reversible
   circuit acts on a state vector as a permutation of the computational
   basis;
3. the swap test of Fig. 3, which compares two states and measures a single
   ancilla qubit.

This package implements exactly those ingredients on top of numpy:

* :class:`Statevector` with :func:`product_state` and friends,
* :func:`apply_circuit` / :func:`apply_hadamard`,
* :class:`SwapTest` (analytic Born-rule sampling, with an explicit
  circuit-level construction available for cross-validation),
* :class:`QuantumCircuitOracle` — the query-counted quantum oracle.

The substitution relative to the paper: real quantum hardware is replaced by
this simulator.  Query counts — the complexity measure of Table 1 — are
unaffected; only the per-query wall-clock cost becomes exponential in ``n``,
which bounds the quantum experiment sweeps to n ≈ 8–10.
"""

from __future__ import annotations

from repro.quantum import gf2, simon
from repro.quantum.apply import (
    apply_circuit,
    apply_hadamard,
    apply_permutation,
)
from repro.quantum.oracle import QuantumCircuitOracle
from repro.quantum.simon import XorQueryOracle, find_hidden_period, simon_sample
from repro.quantum.statevector import (
    MINUS,
    PLUS,
    ZERO,
    ONE,
    Statevector,
    basis_state,
    product_state,
)
from repro.quantum.swap_test import SwapTest, swap_test_probability

__all__ = [
    "Statevector",
    "basis_state",
    "product_state",
    "ZERO",
    "ONE",
    "PLUS",
    "MINUS",
    "apply_circuit",
    "apply_permutation",
    "apply_hadamard",
    "SwapTest",
    "swap_test_probability",
    "QuantumCircuitOracle",
    "XorQueryOracle",
    "simon_sample",
    "find_hidden_period",
    "simon",
    "gf2",
]
