"""N-I equivalence: input negation only (Proposition 5, Algorithm 1).

``C1 = C2 C_nu``.

* With an inverse available, ``C2^{-1} . C1`` (or ``C1^{-1} . C2``) equals
  ``C_nu`` and the all-zero probe reads the negation mask in one composite
  query — O(1).
* Without inverses, Theorem 1 shows any classical algorithm needs
  ``Omega(2^{n/2})`` queries (implemented as
  :func:`repro.baselines.classical_collision.match_n_i_collision`), but the
  quantum Algorithm 1 solves it with ``O(n log(1/epsilon))`` quantum
  queries: for each line ``i`` the probe state has ``|0>`` on line ``i`` and
  ``|+>`` everywhere else, so a NOT gate on any other line is invisible and
  a NOT on line ``i`` makes the two circuits' output states orthogonal —
  which the swap test detects with probability 1/2 per repetition.
"""

from __future__ import annotations

import random as _random
from collections.abc import Iterator

from repro.bits import int_to_bits
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.permutation import Permutation
from repro.core.equivalence import EquivalenceType
from repro.core.matchers._sequences import (
    QuerySnapshot,
    repetitions_for_swap_test,
    swap_tests_see_one,
)
from repro.core.problem import MatchContext, MatchingResult
from repro.exceptions import MatchingError, UnsupportedEquivalenceError
from repro.oracles.oracle import CircuitOracle, PermutationOracle, as_oracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.quantum.statevector import PLUS, ZERO, Statevector, product_state
from repro.quantum.swap_test import SwapTest

__all__ = [
    "match_n_i",
    "match_n_i_quantum",
    "match_n_i_simon",
    "as_quantum_oracle",
]


def as_quantum_oracle(target, max_queries: int | None = None) -> QuantumCircuitOracle:
    """Coerce a circuit, permutation or oracle into a quantum oracle.

    Classical :class:`CircuitOracle`/:class:`PermutationOracle` wrappers are
    unwrapped through their white-box escape hatch (the simulator needs the
    underlying function); opaque function oracles cannot be lifted and raise
    :class:`MatchingError`.  Pre-built quantum oracles pass through
    unchanged (their own budget wins); otherwise ``max_queries`` becomes a
    hard quantum-query budget on the built oracle.
    """
    if isinstance(target, QuantumCircuitOracle):
        return target
    if isinstance(target, (ReversibleCircuit, Permutation)):
        return QuantumCircuitOracle(target, max_queries=max_queries)
    if isinstance(target, CircuitOracle):
        return QuantumCircuitOracle(target.circuit, max_queries=max_queries)
    if isinstance(target, PermutationOracle):
        return QuantumCircuitOracle(target.permutation, max_queries=max_queries)
    raise MatchingError(
        f"cannot build a quantum oracle from {type(target).__name__}; pass a "
        "circuit, permutation or QuantumCircuitOracle"
    )


def marked_probes(marker: str, num_lines: int) -> Iterator[Statevector]:
    """For each line ``b`` in order: ``marker`` on ``b``, ``|+>`` elsewhere.

    A generator, so a caller that needs one probe at a time holds one
    ``2**n``-amplitude vector, not ``n`` of them.
    """
    for line in range(num_lines):
        labels = [PLUS] * num_lines
        labels[line] = marker
        yield product_state(labels)


def match_n_i(circuit1, circuit2) -> MatchingResult:
    """Find ``nu`` with ``C1 = C2 C_nu`` using classical queries.

    Requires at least one inverse oracle; without one, use
    :func:`match_n_i_quantum` (polynomial) or the exponential classical
    collision baseline.

    Raises:
        UnsupportedEquivalenceError: if neither oracle exposes an inverse.
    """
    oracle1 = as_oracle(circuit1)
    oracle2 = as_oracle(circuit2)
    snapshot = QuerySnapshot(oracle1, oracle2)
    num_lines = oracle1.num_lines

    if oracle2.has_inverse:
        # C_nu = C2^{-1} . C1: probe the all-zero input.
        mask = oracle2.query_inverse(oracle1.query(0))
    elif oracle1.has_inverse:
        # C1^{-1} . C2 = C_nu^{-1} = C_nu.
        mask = oracle1.query_inverse(oracle2.query(0))
    else:
        raise UnsupportedEquivalenceError(
            "classical N-I matching without inverse circuits requires "
            "Omega(2^{n/2}) queries (Theorem 1); use match_n_i_quantum or "
            "repro.baselines.classical_collision"
        )
    nu_x = tuple(bool(bit) for bit in int_to_bits(mask, num_lines))
    return MatchingResult(
        EquivalenceType.N_I,
        nu_x=nu_x,
        queries=snapshot.queries,
        metadata={"regime": "classical-inverse"},
    )


def match_n_i_quantum(
    circuit1,
    circuit2,
    epsilon: float = 1e-3,
    rng: _random.Random | int | None = None,
    swap_test: SwapTest | None = None,
) -> MatchingResult:
    """Algorithm 1: quantum N-I matching without inverse access.

    Args:
        circuit1, circuit2: circuits, permutations or quantum oracles
            promised to be N-I equivalent.
        epsilon: admissible per-line failure probability; the swap test is
            repeated ``k = ceil(log2(1/epsilon))`` times per line exactly as
            derived in Section 4.5.
        rng: randomness source for the swap-test measurements (ignored when
            an explicit ``swap_test`` is supplied).
        swap_test: optionally, a pre-configured :class:`SwapTest` (e.g. one
            that simulates the full Fig. 3 circuit).

    Returns:
        A result whose ``nu_x`` is the negation function,
        ``quantum_queries`` counts circuit executions on quantum states and
        ``swap_tests`` counts swap-test invocations.
    """
    oracle1 = as_quantum_oracle(circuit1)
    oracle2 = as_quantum_oracle(circuit2)
    if oracle1.num_qubits != oracle2.num_qubits:
        raise MatchingError("circuits must have the same number of lines")
    num_lines = oracle1.num_qubits
    tester = swap_test if swap_test is not None else SwapTest(rng)
    repetitions = repetitions_for_swap_test(epsilon)
    start_queries = oracle1.query_count + oracle2.query_count
    start_tests = tester.runs

    nu_x = [
        swap_tests_see_one(oracle1, probe, oracle2, probe, tester, repetitions)
        for probe in marked_probes(ZERO, num_lines)
    ]

    quantum_queries = oracle1.query_count + oracle2.query_count - start_queries
    return MatchingResult(
        EquivalenceType.N_I,
        nu_x=tuple(nu_x),
        quantum_queries=quantum_queries,
        swap_tests=tester.runs - start_tests,
        metadata={
            "regime": "quantum-swap-test",
            "epsilon": epsilon,
            "repetitions": repetitions,
        },
    )


def match_n_i_simon(
    circuit1,
    circuit2,
    rng: _random.Random | None | int = None,
    max_samples: int | None = None,
) -> MatchingResult:
    """Simon's-algorithm variant of quantum N-I matching (footnote 2).

    Besides Algorithm 1, the paper mentions (without details, for space)
    further quantum matchers "inspired by Simon's algorithm".  The natural
    construction is implemented here: define

        ``h(x, b) = C1(x)`` if ``b = 0`` else ``C2(x)``

    on ``n + 1`` input bits.  Because ``C1 = C2 C_nu`` and both circuits are
    bijections, ``h`` is exactly two-to-one with hidden XOR period
    ``s = (mask, 1)`` where ``mask`` packs the negation function — so
    Simon's algorithm recovers ``nu`` with ``O(n)`` quantum queries, no swap
    tests and no per-line repetition.

    Args:
        circuit1, circuit2: circuits, permutations or classical oracles with
            a white-box escape hatch (the simulator tabulates the functions).
        rng: randomness for the simulated measurements.
        max_samples: optional cap on Simon rounds.

    Returns:
        A result whose ``nu_x`` is the negation function; every Simon query
        touches both circuits in superposition, so ``quantum_queries``
        charges two queries per round.
    """
    from repro.quantum.simon import XorQueryOracle, find_hidden_period

    oracle1 = as_quantum_oracle(circuit1)
    oracle2 = as_quantum_oracle(circuit2)
    if oracle1.num_qubits != oracle2.num_qubits:
        raise MatchingError("circuits must have the same number of lines")
    num_lines = oracle1.num_qubits

    def joint(value: int) -> int:
        x = value & ((1 << num_lines) - 1)
        branch = value >> num_lines
        return oracle2.query_basis(x) if branch else oracle1.query_basis(x)

    # Tabulating h costs one basis query per input of each circuit; those
    # classical queries are charged to the circuit oracles, while the Simon
    # rounds are the quantum queries Table 1-style accounting cares about.
    xor_oracle = XorQueryOracle(joint, num_lines + 1, num_lines)
    period = find_hidden_period(xor_oracle, rng=rng, max_samples=max_samples)
    if not (period >> num_lines) & 1:
        raise MatchingError(
            "Simon period has branch bit 0; the circuits are not N-I equivalent"
        )
    mask = period & ((1 << num_lines) - 1)
    nu_x = tuple(bool(bit) for bit in int_to_bits(mask, num_lines))
    return MatchingResult(
        EquivalenceType.N_I,
        nu_x=nu_x,
        quantum_queries=2 * xor_oracle.query_count,
        metadata={
            "regime": "quantum-simon",
            "simon_rounds": xor_oracle.query_count,
        },
    )


def dispatch_n_i(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: uniform signature over :func:`match_n_i`."""
    return match_n_i(oracle1, oracle2)


def dispatch_n_i_quantum(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: Algorithm 1 (swap-test N-I matching).

    Lifts to quantum oracles here so the context's query budget carries
    over to the quantum tier.
    """
    return match_n_i_quantum(
        as_quantum_oracle(oracle1, max_queries=ctx.max_queries),
        as_quantum_oracle(oracle2, max_queries=ctx.max_queries),
        epsilon=ctx.epsilon,
        rng=ctx.rng,
        swap_test=ctx.swap_test,
    )


def dispatch_n_i_simon(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: the Simon's-algorithm variant (footnote 2).

    Its row follows the swap test's in the dispatch table, and both need
    the same capability, so resolution never picks it; the row still shows
    in the error text of an N-I pair with neither inverse nor quantum
    access.  Call :func:`match_n_i_simon` directly to run it.
    """
    return match_n_i_simon(
        as_quantum_oracle(oracle1, max_queries=ctx.max_queries),
        as_quantum_oracle(oracle2, max_queries=ctx.max_queries),
        rng=ctx.rng,
    )
