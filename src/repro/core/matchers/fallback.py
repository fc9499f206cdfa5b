"""The opt-in brute-force matcher.

The last tier of the dispatch table's fallback chain (exact -> randomised
-> quantum -> brute force): every nontrivial equivalence class ends with an
exponential witness-search row that is only eligible when the caller
explicitly granted :attr:`~repro.core.registry.Capability.BRUTE_FORCE`.
For the UNIQUE-SAT-hard classes this is the *only* row, so resolution
reproduces the Section 5 story: without the opt-in the generated
:class:`~repro.exceptions.UnsupportedEquivalenceError` points at the
hardness reductions, with it the search of
:mod:`repro.baselines.brute_force` runs.

The search needs white-box circuits (it rebuilds and simulates candidate
reconstructions), so the adapter unwraps the oracle escape hatches and
refuses true black boxes.
"""

from __future__ import annotations

from repro.circuits.circuit import ReversibleCircuit
from repro.core.equivalence import EquivalenceType
from repro.core.problem import MatchContext, MatchingResult
from repro.exceptions import MatchingError
from repro.oracles.oracle import CircuitOracle

__all__ = ["white_box_circuit"]


def white_box_circuit(target) -> ReversibleCircuit:
    """Unwrap a white-box circuit from an oracle, or raise.

    Raises:
        MatchingError: when the target is a true black box (e.g. a
            :class:`~repro.oracles.oracle.FunctionOracle`).
    """
    if isinstance(target, ReversibleCircuit):
        return target
    if isinstance(target, CircuitOracle):
        return target.circuit
    raise MatchingError(
        "brute-force matching needs white-box circuit access; got "
        f"{type(target).__name__}"
    )


def dispatch_brute_force(
    equivalence: EquivalenceType, oracle1, oracle2, ctx: MatchContext
) -> MatchingResult:
    """Dispatch adapter: exhaustive ``equivalence`` witness search."""
    from repro.baselines.brute_force import brute_force_match

    return brute_force_match(
        white_box_circuit(oracle1),
        white_box_circuit(oracle2),
        equivalence,
        rng=ctx.rng,
    )
