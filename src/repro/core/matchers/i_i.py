"""I-I equivalence (plain combinational equivalence).

There is nothing to compute: the promise already states the circuits are
identical.  The matcher exists so the dispatcher covers all 16 classes and
so experiments have a zero-query baseline; an optional spot check queries
both circuits on a handful of random inputs.
"""

from __future__ import annotations

import random as _random

from repro.circuits.random import coerce_rng
from repro.core.equivalence import EquivalenceType
from repro.core.matchers._sequences import QuerySnapshot
from repro.core.problem import MatchContext, MatchingResult
from repro.exceptions import PromiseViolationError
from repro.oracles.oracle import as_oracle

__all__ = ["match_i_i"]


def match_i_i(
    circuit1,
    circuit2,
    spot_checks: int = 0,
    rng: _random.Random | int | None = None,
) -> MatchingResult:
    """Match under I-I equivalence (no witnesses to find).

    Args:
        circuit1, circuit2: circuits or oracles.
        spot_checks: number of random probes used to sanity-check the
            promise (0 by default — the promise is trusted, as in the paper).
        rng: randomness for the spot checks.

    Raises:
        PromiseViolationError: if a spot check observes differing outputs.
    """
    oracle1 = as_oracle(circuit1)
    oracle2 = as_oracle(circuit2)
    snapshot = QuerySnapshot(oracle1, oracle2)
    rng = coerce_rng(rng)
    for _ in range(spot_checks):
        probe = rng.getrandbits(oracle1.num_lines)
        if oracle1.query(probe) != oracle2.query(probe):
            raise PromiseViolationError(
                "circuits differ on a probe input; they are not I-I equivalent"
            )
    return MatchingResult(EquivalenceType.I_I, queries=snapshot.queries)


def dispatch_i_i(oracle1, oracle2, ctx: MatchContext) -> MatchingResult:
    """Dispatch adapter: uniform signature over :func:`match_i_i`."""
    return match_i_i(oracle1, oracle2)
