"""NP-I equivalence: input negation plus permutation (Proposition 6).

``C1 = C2 C_pi C_nu``.

* With an inverse available the composite ``C2^{-1} . C1 = C_pi C_nu`` (or
  ``C1^{-1} . C2 = C_nu C_pi^{-1}``) is analysed exactly like the I-NP case:
  an all-zero probe reveals the (possibly permuted) negation, XOR-ing it off
  leaves a pure wire permutation — O(log n).
* Without inverses the quantum algorithm of Section 4.6 first finds ``pi``
  by placing ``|->`` probes: a NOT gate on a ``|->``/``|+>`` qubit only
  contributes a global phase, so the two circuits' outputs are identical
  exactly when the ``|->`` markers land on matched lines; then a variant of
  Algorithm 1 recovers ``nu`` — O(n^2 log(1/epsilon)) quantum queries.
"""

from __future__ import annotations

import random as _random

from repro.bits import int_to_bits
from repro.circuits.line_permutation import LinePermutation
from repro.core.equivalence import EquivalenceType
from repro.core.matchers._sequences import (
    QuerySnapshot,
    identify_line_permutation,
    repetitions_for_swap_test,
    swap_tests_see_one,
)
from repro.core.matchers.n_i import as_quantum_oracle, marked_probes
from repro.core.problem import MatchContext, MatchingResult
from repro.exceptions import MatchingError, PromiseViolationError
from repro.oracles.oracle import as_oracle
from repro.quantum.statevector import MINUS, ZERO
from repro.quantum.swap_test import SwapTest

__all__ = ["match_np_i", "match_np_i_quantum"]


def match_np_i(
    circuit1,
    circuit2,
    epsilon: float = 1e-3,
    rng: _random.Random | int | None = None,
    swap_test: SwapTest | None = None,
) -> MatchingResult:
    """Find ``nu`` and ``pi`` with ``C1 = C2 C_pi C_nu``.

    Uses the O(log n) classical algorithm when an inverse oracle is
    available and falls back to the quantum algorithm
    (:func:`match_np_i_quantum`) otherwise.
    """
    oracle1 = as_oracle(circuit1)
    oracle2 = as_oracle(circuit2)
    if not (oracle1.has_inverse or oracle2.has_inverse):
        return match_np_i_quantum(
            circuit1, circuit2, epsilon=epsilon, rng=rng, swap_test=swap_test
        )

    snapshot = QuerySnapshot(oracle1, oracle2)
    num_lines = oracle1.num_lines

    if oracle2.has_inverse:
        # C = C2^{-1} . C1 = C_pi C_nu = C_nu' C_pi with nu'(pi(i)) = nu(i).
        def composite(probes: list[int]) -> list[int]:
            return oracle2.query_inverse_many(oracle1.query_many(probes))

        nu_prime_mask = composite([0])[0]
        pi_x = identify_line_permutation(
            lambda probes: [
                response ^ nu_prime_mask for response in composite(probes)
            ],
            num_lines,
        )
        nu_prime = int_to_bits(nu_prime_mask, num_lines)
        nu_x = tuple(bool(nu_prime[pi_x[line]]) for line in range(num_lines))
    else:
        # C = C1^{-1} . C2 = (C_pi C_nu)^{-1} = C_nu C_pi^{-1}: the negation
        # is outermost, so the all-zero probe reads nu directly.
        def composite(probes: list[int]) -> list[int]:
            return oracle1.query_inverse_many(oracle2.query_many(probes))

        nu_mask = composite([0])[0]
        pi_inverse = identify_line_permutation(
            lambda probes: [
                response ^ nu_mask for response in composite(probes)
            ],
            num_lines,
        )
        pi_x = pi_inverse.inverse()
        nu_x = tuple(bool(bit) for bit in int_to_bits(nu_mask, num_lines))

    return MatchingResult(
        EquivalenceType.NP_I,
        nu_x=nu_x,
        pi_x=pi_x,
        queries=snapshot.queries,
        metadata={"regime": "classical-inverse"},
    )


def match_np_i_quantum(
    circuit1,
    circuit2,
    epsilon: float = 1e-3,
    rng: _random.Random | int | None = None,
    swap_test: SwapTest | None = None,
    infer_last_candidate: bool = True,
) -> MatchingResult:
    """Quantum NP-I matching without inverse access (Section 4.6).

    Args:
        circuit1, circuit2: circuits, permutations or quantum oracles
            promised to be NP-I equivalent.
        epsilon: admissible per-decision failure probability (the swap test
            is repeated ``ceil(log2(1/epsilon))`` times per candidate pair).
        rng: randomness source for the swap-test measurements.
        swap_test: optionally a pre-configured :class:`SwapTest`.
        infer_last_candidate: when only one candidate output line remains
            for the final line pairing, accept it without testing (saves
            queries; disable to follow the paper's n^2 sweep verbatim).
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

    # Phase 1: find pi.  Placing |-> on line b1 of C1 and line b2 of C2 (all
    # other lines |+>) makes the final states identical iff pi(b1) = b2.
    # Both circuits draw their probes from the same n states, so each is
    # prepared once per match rather than once per candidate pair.
    minus_probes = list(marked_probes(MINUS, num_lines))
    pi_mapping: list[int | None] = [None] * num_lines
    unmatched: list[int] = list(range(num_lines))
    for b1 in range(num_lines):
        probe1 = minus_probes[b1]
        matched: int | None = None
        for b2 in list(unmatched):
            if infer_last_candidate and len(unmatched) == 1:
                matched = unmatched[0]
                break
            if not swap_tests_see_one(
                oracle1, probe1, oracle2, minus_probes[b2], tester, repetitions
            ):
                matched = b2
                break
        if matched is None:
            raise PromiseViolationError(
                f"no output line of C2 pairs with line {b1} of C1; the "
                "circuits are not NP-I equivalent"
            )
        pi_mapping[b1] = matched
        unmatched.remove(matched)
    pi_x = LinePermutation([value for value in pi_mapping if value is not None])

    # Phase 2: find nu with the Algorithm 1 variant: |0> on line i of C1 and
    # on line pi(i) of C2; a NOT on line i flips that marker and the swap
    # test sees orthogonal states.
    # Drop the |-> probes first, so the two lists are never alive together.
    del minus_probes
    zero_probes = list(marked_probes(ZERO, num_lines))
    nu_x = [
        swap_tests_see_one(
            oracle1, zero_probes[line], oracle2, zero_probes[pi_x[line]],
            tester, repetitions,
        )
        for line in range(num_lines)
    ]

    quantum_queries = oracle1.query_count + oracle2.query_count - start_queries
    return MatchingResult(
        EquivalenceType.NP_I,
        nu_x=tuple(nu_x),
        pi_x=pi_x,
        quantum_queries=quantum_queries,
        swap_tests=tester.runs - start_tests,
        metadata={
            "regime": "quantum-swap-test",
            "epsilon": epsilon,
            "repetitions": repetitions,
            "infer_last_candidate": infer_last_candidate,
        },
    )


def dispatch_np_i(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: uniform signature over :func:`match_np_i`."""
    return match_np_i(
        oracle1, oracle2, epsilon=ctx.epsilon, rng=ctx.rng, swap_test=ctx.swap_test
    )


def dispatch_np_i_quantum(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: Section 4.6 quantum NP-I matching.

    Lifts to quantum oracles here so the context's query budget carries
    over to the quantum tier.
    """
    return match_np_i_quantum(
        as_quantum_oracle(oracle1, max_queries=ctx.max_queries),
        as_quantum_oracle(oracle2, max_queries=ctx.max_queries),
        epsilon=ctx.epsilon,
        rng=ctx.rng,
        swap_test=ctx.swap_test,
    )
