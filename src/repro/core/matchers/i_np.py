"""I-NP equivalence: output negation plus permutation (Proposition 3).

``C1 = C_pi C_nu C2``.

* With ``C2^{-1}`` available, ``C = C1 . C2^{-1}`` equals ``C_pi C_nu``;
  the all-zero probe reveals the permuted negation ``nu'`` (Fig. 4), XOR-ing
  it away leaves a pure wire permutation identified with the binary-code
  patterns, and Fig. 4 converts ``(nu', pi)`` back to ``(nu, pi)``.
  With ``C1^{-1}`` available the analogous composite equals
  ``C_nu C_pi^{-1}`` and the same two-step probe applies.
* Without inverses, randomised output-sequence matching with complemented
  sequences allowed recovers both ``pi`` and ``nu`` in
  ``O(log n + log(1/epsilon))`` probes.
"""

from __future__ import annotations

import random as _random

from repro.bits import int_to_bits
from repro.core.equivalence import EquivalenceType
from repro.core.matchers._sequences import (
    QuerySnapshot,
    identify_line_permutation,
    match_output_sequences,
)
from repro.core.problem import MatchContext, MatchingResult
from repro.oracles.oracle import as_oracle

__all__ = ["match_i_np"]


def match_i_np(
    circuit1,
    circuit2,
    epsilon: float = 1e-3,
    rng: _random.Random | int | None = None,
) -> MatchingResult:
    """Find ``nu`` and ``pi`` with ``C1 = C_pi C_nu C2``.

    Args:
        circuit1, circuit2: circuits or oracles promised to be I-NP
            equivalent.
        epsilon: admissible failure probability of the randomised regime.
        rng: randomness source for the randomised regime.
    """
    oracle1 = as_oracle(circuit1)
    oracle2 = as_oracle(circuit2)
    snapshot = QuerySnapshot(oracle1, oracle2)
    num_lines = oracle1.num_lines

    if oracle2.has_inverse:
        # C = C1 . C2^{-1} = C_pi C_nu = C_nu' C_pi with nu'(pi(i)) = nu(i).
        def composite(probes: list[int]) -> list[int]:
            return oracle1.query_many(oracle2.query_inverse_many(probes))

        nu_prime_mask = composite([0])[0]
        pi_y = identify_line_permutation(
            lambda probes: [
                response ^ nu_prime_mask for response in composite(probes)
            ],
            num_lines,
        )
        nu_prime = int_to_bits(nu_prime_mask, num_lines)
        nu_y = tuple(bool(nu_prime[pi_y[line]]) for line in range(num_lines))
        regime = "classical-inverse"
    elif oracle1.has_inverse:
        # C = C2 . C1^{-1} = C_nu C_pi^{-1}: the negation sits outermost, so
        # the all-zero probe reads nu directly and XOR-ing it away leaves
        # C_pi^{-1}.
        def composite(probes: list[int]) -> list[int]:
            return oracle2.query_many(oracle1.query_inverse_many(probes))

        nu_mask = composite([0])[0]
        pi_inverse = identify_line_permutation(
            lambda probes: [
                response ^ nu_mask for response in composite(probes)
            ],
            num_lines,
        )
        pi_y = pi_inverse.inverse()
        nu_y = tuple(bool(bit) for bit in int_to_bits(nu_mask, num_lines))
        regime = "classical-inverse"
    else:
        pi_y, nu_list = match_output_sequences(
            oracle1, oracle2, epsilon, rng, allow_flip=True
        )
        nu_y = tuple(nu_list)
        regime = "classical-randomized"

    return MatchingResult(
        EquivalenceType.I_NP,
        nu_y=nu_y,
        pi_y=pi_y,
        queries=snapshot.queries,
        metadata={"regime": regime, "epsilon": epsilon},
    )


def dispatch_i_np(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: :func:`match_i_np` picks the regime from the oracles."""
    return match_i_np(oracle1, oracle2, epsilon=ctx.epsilon, rng=ctx.rng)
