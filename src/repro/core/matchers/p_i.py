"""P-I equivalence: input permutation only (Proposition 4).

``C1 = C2 C_pi``.

* With an inverse available, ``C2^{-1} . C1 = C_pi`` (or
  ``C1^{-1} . C2 = C_pi^{-1}``) and the binary-code probe patterns identify
  it in ``ceil(log2 n)`` composite queries.
* Without inverses, the one-hot probing algorithm of Section 4.4 uses one
  one-hot input per line: matching the output patterns of the two circuits
  on one-hot inputs recovers ``pi`` in ``O(n)`` queries.
"""

from __future__ import annotations

from repro.bits import one_hot
from repro.core.equivalence import EquivalenceType
from repro.core.matchers._sequences import QuerySnapshot, identify_line_permutation
from repro.core.problem import MatchContext, MatchingResult
from repro.exceptions import PromiseViolationError
from repro.oracles.oracle import ReversibleOracle, as_oracle

__all__ = ["match_p_i", "identify_input_permutation"]


def identify_input_permutation(
    oracle1: ReversibleOracle, oracle2: ReversibleOracle
) -> "LinePermutation":
    """The one-hot algorithm of Section 4.4 (no inverse needed).

    Probes both oracles on every one-hot input.  Since
    ``C1(e_i) = C2(e_pi(i))``, matching output patterns pairs up the one-hot
    inputs of the two circuits and yields ``pi``.
    """
    from repro.circuits.line_permutation import LinePermutation

    num_lines = oracle1.num_lines
    # One bitsliced pass per oracle over all n one-hot probes; the batch
    # form still charges one query per probe (Section 4.4's O(n) stands).
    probes = [one_hot(line, num_lines) for line in range(num_lines)]
    responses1 = oracle1.query_many(probes)
    responses2 = oracle2.query_many(probes)
    response_to_input = {
        response: line for line, response in enumerate(responses1)
    }

    # A[i] = pi^{-1}(i): the C1 one-hot input whose output matches C2's
    # output on e_i.
    inverse_mapping: list[int] = []
    for line in range(num_lines):
        response = responses2[line]
        if response not in response_to_input:
            raise PromiseViolationError(
                "one-hot outputs of C1 and C2 do not pair up; the circuits "
                "are not P-I equivalent"
            )
        inverse_mapping.append(response_to_input[response])
    return LinePermutation(inverse_mapping).inverse()


def match_p_i(circuit1, circuit2) -> MatchingResult:
    """Find ``pi`` with ``C1 = C2 C_pi`` (input permutation).

    Args:
        circuit1, circuit2: circuits or oracles promised to be P-I
            equivalent.  With an inverse available the O(log n) algorithm is
            used, otherwise the O(n) one-hot algorithm.
    """
    oracle1 = as_oracle(circuit1)
    oracle2 = as_oracle(circuit2)
    snapshot = QuerySnapshot(oracle1, oracle2)
    num_lines = oracle1.num_lines

    if oracle2.has_inverse:
        # C_pi = C2^{-1} . C1 (apply C1 first).
        pi_x = identify_line_permutation(
            lambda probes: oracle2.query_inverse_many(oracle1.query_many(probes)),
            num_lines,
        )
        regime = "classical-inverse"
    elif oracle1.has_inverse:
        # C_pi^{-1} = C1^{-1} . C2.
        pi_inverse = identify_line_permutation(
            lambda probes: oracle1.query_inverse_many(oracle2.query_many(probes)),
            num_lines,
        )
        pi_x = pi_inverse.inverse()
        regime = "classical-inverse"
    else:
        pi_x = identify_input_permutation(oracle1, oracle2)
        regime = "classical-onehot"

    return MatchingResult(
        EquivalenceType.P_I,
        pi_x=pi_x,
        queries=snapshot.queries,
        metadata={"regime": regime},
    )


def dispatch_p_i(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: :func:`match_p_i` picks the regime from the oracles."""
    return match_p_i(oracle1, oracle2)
