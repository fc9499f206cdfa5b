"""P-N equivalence: input permutation plus output negation (Proposition 7).

``C1 = C_nu C2 C_pi``.  The all-zero probe is insensitive to the input
permutation, so it reveals ``nu`` in one query per oracle; after that the
problem reduces to P-I equivalence between ``C1`` and the "virtual" circuit
``C_nu C2``, whose oracle is simulated by XOR-ing the negation mask onto
``C2``'s responses (one real query per virtual query, so the reduction costs
nothing extra).  The complexity is therefore exactly that of P-I:
O(log n) with an inverse, O(n) without.
"""

from __future__ import annotations

from repro.bits import int_to_bits
from repro.core.equivalence import EquivalenceType
from repro.core.matchers._sequences import QuerySnapshot, identify_line_permutation
from repro.core.matchers.p_i import identify_input_permutation
from repro.core.problem import MatchContext, MatchingResult
from repro.oracles.oracle import ReversibleOracle, as_oracle

__all__ = ["match_p_n"]


class _NegatedOutputOracle(ReversibleOracle):
    """A composed oracle view computing ``C_nu . oracle`` at no extra cost.

    Forward queries XOR the mask onto the wrapped oracle's response; inverse
    queries XOR the mask onto the argument before calling the wrapped
    inverse.  Queries are charged to the wrapped oracle (the view's own
    counters are ignored by the caller), and the batch hooks forward to the
    wrapped oracle's ``query_many`` so the composed view keeps the
    bit-parallel capability of whatever it wraps.
    """

    def __init__(self, oracle: ReversibleOracle, mask: int) -> None:
        super().__init__(oracle.num_lines, with_inverse=oracle.has_inverse)
        self._oracle = oracle
        self._mask = mask

    def _evaluate_many(self, values: list[int]) -> list[int]:
        mask = self._mask
        return [response ^ mask for response in self._oracle.query_many(values)]

    def _evaluate_inverse_many(self, values: list[int]) -> list[int]:
        mask = self._mask
        return self._oracle.query_inverse_many([value ^ mask for value in values])


def match_p_n(circuit1, circuit2) -> MatchingResult:
    """Find ``pi`` and ``nu`` with ``C1 = C_nu C2 C_pi``.

    Args:
        circuit1, circuit2: circuits or oracles promised to be P-N
            equivalent.
    """
    oracle1 = as_oracle(circuit1)
    oracle2 = as_oracle(circuit2)
    snapshot = QuerySnapshot(oracle1, oracle2)
    num_lines = oracle1.num_lines

    # Step 1: the input permutation cannot move the all-zero pattern, so the
    # output difference on it is exactly the negation mask.
    mask = oracle1.query(0) ^ oracle2.query(0)
    nu_y = tuple(bool(bit) for bit in int_to_bits(mask, num_lines))

    # Step 2: C1 and C3 = C_nu C2 are P-I equivalent; reuse the P-I machinery
    # against the virtual C3 oracle.
    virtual = _NegatedOutputOracle(oracle2, mask)
    if virtual.has_inverse:
        pi_x = identify_line_permutation(
            lambda probes: virtual.query_inverse_many(oracle1.query_many(probes)),
            num_lines,
        )
        regime = "classical-inverse"
    elif oracle1.has_inverse:
        pi_inverse = identify_line_permutation(
            lambda probes: oracle1.query_inverse_many(virtual.query_many(probes)),
            num_lines,
        )
        pi_x = pi_inverse.inverse()
        regime = "classical-inverse"
    else:
        pi_x = identify_input_permutation(oracle1, virtual)
        regime = "classical-onehot"

    return MatchingResult(
        EquivalenceType.P_N,
        nu_y=nu_y,
        pi_x=pi_x,
        queries=snapshot.queries,
        metadata={"regime": regime},
    )


def dispatch_p_n(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: :func:`match_p_n` picks the regime from the oracles."""
    return match_p_n(oracle1, oracle2)
