"""The top-level :func:`match` entry point (thin engine wrapper).

Historically this module was a hand-rolled if/elif ladder over the 16
equivalence classes.  Dispatch now lives in the Table 1 dispatch table
(:mod:`repro.core.registry`) behind the :class:`~repro.core.engine.MatchingEngine`
facade; :func:`match` survives, signature and semantics unchanged, as a thin
wrapper over a shared default engine so existing callers keep working.  Hard
classes raise :class:`~repro.exceptions.UnsupportedEquivalenceError` with a
message generated from the table — which matchers the class has and which
capability each one is missing — exactly the situation Section 5 of the
paper establishes.
"""

from __future__ import annotations

import random as _random

from repro.core.engine import get_default_engine
from repro.core.equivalence import EquivalenceType
from repro.core.problem import MatchingResult
from repro.quantum.swap_test import SwapTest

__all__ = ["match"]


def match(
    circuit1,
    circuit2,
    equivalence: EquivalenceType | str,
    *,
    epsilon: float = 1e-3,
    rng: _random.Random | int | None = None,
    allow_quantum: bool = True,
    swap_test: SwapTest | None = None,
) -> MatchingResult:
    """Match two reversible circuits under a promised X-Y equivalence.

    Args:
        circuit1, circuit2: the circuits — either
            :class:`~repro.circuits.circuit.ReversibleCircuit` /
            :class:`~repro.circuits.permutation.Permutation` objects (treated
            as black boxes *without* inverse access; wrap them in a
            :class:`~repro.oracles.CircuitOracle` with ``with_inverse=True``
            to grant it) or pre-configured oracles.
        equivalence: the promised class, as an :class:`EquivalenceType` or an
            "X-Y" label string.
        epsilon: admissible failure probability for randomised/quantum
            matchers.
        rng: randomness source (seed or ``random.Random``) for repeatability.
        allow_quantum: permit the swap-test algorithms for N-I / NP-I when no
            inverse is available.  Requires white-box access for the
            simulator (a circuit, permutation, or an oracle wrapping one).
        swap_test: optionally a pre-configured :class:`SwapTest` instance.

    Returns:
        A :class:`MatchingResult` with the witnesses and query accounting.

    Raises:
        UnsupportedEquivalenceError: for the UNIQUE-SAT-hard classes, for
            N-P without both inverses, and for N-I/NP-I without inverses when
            quantum access is disallowed.
    """
    return get_default_engine().match(
        circuit1,
        circuit2,
        equivalence,
        epsilon=epsilon,
        rng=rng,
        allow_quantum=allow_quantum,
        allow_brute_force=False,
        swap_test=swap_test,
    )
