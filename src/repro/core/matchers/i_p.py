"""I-P equivalence: output permutation only (Proposition 2).

``C1 = C_pi C2``.

* With an inverse available the composite ``C1 . C2^{-1}`` (or
  ``C2 . C1^{-1}``) *is* ``C_pi`` (resp. ``C_pi^{-1}``) and the binary-code
  probe patterns of Section 4.2 identify it in ``ceil(log2 n)`` composite
  queries (two oracle queries each).
* Without inverses, the randomised output-sequence matching of Section 4.2
  finds ``pi`` with ``O(log n + log(1/epsilon))`` common random probes.
"""

from __future__ import annotations

import random as _random

from repro.core.equivalence import EquivalenceType
from repro.core.matchers._sequences import (
    QuerySnapshot,
    identify_line_permutation,
    match_output_sequences,
)
from repro.core.problem import MatchContext, MatchingResult
from repro.oracles.oracle import as_oracle

__all__ = ["match_i_p"]


def match_i_p(
    circuit1,
    circuit2,
    epsilon: float = 1e-3,
    rng: _random.Random | int | None = None,
) -> MatchingResult:
    """Find ``pi`` with ``C1 = C_pi C2`` (output permutation).

    Args:
        circuit1, circuit2: circuits or oracles promised to be I-P
            equivalent.  If either oracle exposes its inverse the
            deterministic O(log n) algorithm is used, otherwise the
            randomised algorithm with failure probability ``epsilon``.
        epsilon: admissible failure probability of the randomised regime.
        rng: randomness source for the randomised regime.
    """
    oracle1 = as_oracle(circuit1)
    oracle2 = as_oracle(circuit2)
    snapshot = QuerySnapshot(oracle1, oracle2)
    num_lines = oracle1.num_lines

    if oracle2.has_inverse:
        # C_pi = C1 . C2^{-1} (apply C2^{-1} first).
        pi_y = identify_line_permutation(
            lambda probes: oracle1.query_many(oracle2.query_inverse_many(probes)),
            num_lines,
        )
        regime = "classical-inverse"
    elif oracle1.has_inverse:
        # C2 . C1^{-1} = C_pi^{-1}.
        pi_inverse = identify_line_permutation(
            lambda probes: oracle2.query_many(oracle1.query_inverse_many(probes)),
            num_lines,
        )
        pi_y = pi_inverse.inverse()
        regime = "classical-inverse"
    else:
        pi_y, _ = match_output_sequences(
            oracle1, oracle2, epsilon, rng, allow_flip=False
        )
        regime = "classical-randomized"

    return MatchingResult(
        EquivalenceType.I_P,
        pi_y=pi_y,
        queries=snapshot.queries,
        metadata={"regime": regime, "epsilon": epsilon},
    )


def dispatch_i_p(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: :func:`match_i_p` picks the regime from the oracles."""
    return match_i_p(oracle1, oracle2, epsilon=ctx.epsilon, rng=ctx.rng)
