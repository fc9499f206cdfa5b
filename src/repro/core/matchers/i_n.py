"""I-N equivalence: output negation only (Proposition 1).

``C1 = C_nu C2``.  Query both circuits on the all-zero input; the negation
function is the bitwise difference of the two outputs.  One query per
oracle — O(1) regardless of inverse availability.
"""

from __future__ import annotations

from repro.bits import int_to_bits
from repro.core.equivalence import EquivalenceType
from repro.core.matchers._sequences import QuerySnapshot
from repro.core.problem import MatchContext, MatchingResult
from repro.oracles.oracle import as_oracle

__all__ = ["match_i_n"]


def match_i_n(circuit1, circuit2) -> MatchingResult:
    """Find ``nu`` with ``C1 = C_nu C2`` (output negation).

    Args:
        circuit1, circuit2: circuits or oracles promised to be I-N equivalent.

    Returns:
        A result whose ``nu_y`` is the output negation function; exactly two
        oracle queries are spent.
    """
    oracle1 = as_oracle(circuit1)
    oracle2 = as_oracle(circuit2)
    snapshot = QuerySnapshot(oracle1, oracle2)
    difference = oracle1.query(0) ^ oracle2.query(0)
    nu_y = tuple(bool(bit) for bit in int_to_bits(difference, oracle1.num_lines))
    return MatchingResult(
        EquivalenceType.I_N,
        nu_y=nu_y,
        queries=snapshot.queries,
        metadata={"regime": "classical"},
    )


def dispatch_i_n(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: uniform signature over :func:`match_i_n`."""
    return match_i_n(oracle1, oracle2)
