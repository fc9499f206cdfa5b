"""N-P equivalence: input negation plus output permutation (Proposition 8).

``C1 = C_pi C2 C_nu``.  Taking inverses, ``C1^{-1} = C_nu C2^{-1} C_pi^{-1}``,
which is a P-N instance between the *inverse* circuits with the same
negation function and the inverse permutation.  The paper therefore solves
N-P in O(log n) queries when **both** inverses are available by running the
P-N procedure on them; when either inverse is missing, the complexity is an
open problem (the dashed oval of Fig. 1) and this matcher refuses.
"""

from __future__ import annotations

from repro.bits import int_to_bits
from repro.core.equivalence import EquivalenceType
from repro.core.matchers._sequences import QuerySnapshot, identify_line_permutation
from repro.core.problem import MatchContext, MatchingResult
from repro.exceptions import UnsupportedEquivalenceError
from repro.oracles.oracle import as_oracle

__all__ = ["match_n_p"]


def match_n_p(circuit1, circuit2) -> MatchingResult:
    """Find ``nu`` and ``pi`` with ``C1 = C_pi C2 C_nu``.

    Both oracles must expose their inverse circuits; the quantum complexity
    of the inverse-free case is the paper's stated open problem.

    Raises:
        UnsupportedEquivalenceError: if either inverse is unavailable.
    """
    oracle1 = as_oracle(circuit1)
    oracle2 = as_oracle(circuit2)
    if not (oracle1.has_inverse and oracle2.has_inverse):
        raise UnsupportedEquivalenceError(
            "N-P matching needs both inverse circuits (Proposition 8); "
            "without them no polynomial algorithm is known (open problem)"
        )
    snapshot = QuerySnapshot(oracle1, oracle2)
    num_lines = oracle1.num_lines

    # Work on the inverse circuits: A = C1^{-1}, B = C2^{-1} satisfy
    # A = C_nu B C_pi^{-1}, a P-N instance.
    # Step 1 (negation): the all-zero probe is permutation-invariant.
    mask = oracle1.query_inverse(0) ^ oracle2.query_inverse(0)
    nu_x = tuple(bool(bit) for bit in int_to_bits(mask, num_lines))

    # Step 2 (permutation): A and B' = C_nu B are P-I equivalent with
    # witness C_pi^{-1}; since B'^{-1} = C2 . C_nu is available (it is just a
    # forward query of C2 on a mask-XORed input), the O(log n) composite
    # C_pi^{-1} = B'^{-1} . A can be probed directly.
    pi_inverse = identify_line_permutation(
        lambda probes: oracle2.query_many(
            [response ^ mask for response in oracle1.query_inverse_many(probes)]
        ),
        num_lines,
    )
    pi_y = pi_inverse.inverse()

    return MatchingResult(
        EquivalenceType.N_P,
        nu_x=nu_x,
        pi_y=pi_y,
        queries=snapshot.queries,
        metadata={"regime": "classical-both-inverses"},
    )


def dispatch_n_p(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: Proposition 8 on the two inverse circuits."""
    return match_n_p(oracle1, oracle2)
