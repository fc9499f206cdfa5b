"""The non-promise decision problem.

Problem 1 of the paper is a promise problem: matchers may return garbage
when the circuits are not actually X-Y equivalent.  Section 3 explains how
to lift the promise: run the matcher anyway, then *validate* the candidate
witnesses with one round of equivalence checking — if they validate, the
circuits are equivalent and the witnesses prove it; if not, and the matcher
is correct under the promise, the circuits cannot be equivalent.

:func:`decide` packages exactly that argument.  For the tractable classes it
costs one matcher run plus one verification; for the UNIQUE-SAT-hard classes
no polynomial matcher exists and the caller may opt into brute force.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass

from repro.circuits.circuit import ReversibleCircuit
from repro.core.engine import get_default_engine
from repro.core.equivalence import EquivalenceType, Hardness, classify
from repro.core.problem import MatchingResult
from repro.core.verify import verify_match
from repro.exceptions import MatchingError, UnsupportedEquivalenceError

__all__ = ["DecisionOutcome", "decide"]


@dataclass(frozen=True)
class DecisionOutcome:
    """Result of the non-promise decision.

    Attributes:
        equivalent: whether the circuits are X-Y equivalent.
        result: the validated witnesses when ``equivalent`` is True, or the
            (invalid) candidate the matcher produced when it is False and a
            matcher ran; ``None`` when no matcher could run.
        exhaustive: whether validation compared all ``2**n`` inputs (True)
            or a random sample (False).
    """

    equivalent: bool
    result: MatchingResult | None
    exhaustive: bool


def decide(
    c1: ReversibleCircuit,
    c2: ReversibleCircuit,
    equivalence: EquivalenceType | str,
    *,
    epsilon: float = 1e-3,
    rng: _random.Random | int | None = None,
    allow_quantum: bool = True,
    allow_brute_force: bool = False,
    exhaustive_validation: bool | None = None,
    validation_samples: int = 512,
) -> DecisionOutcome:
    """Decide whether ``c1`` and ``c2`` are X-Y equivalent (no promise).

    Args:
        c1, c2: the circuits as white boxes (validation needs to simulate the
            reconstructed circuit).
        equivalence: the X-Y class to decide.
        epsilon: failure probability budget passed to randomised matchers.
        rng: randomness source.
        allow_quantum: permit the simulated quantum matchers for N-I / NP-I.
        allow_brute_force: for the UNIQUE-SAT-hard classes, fall back to the
            exhaustive witness search of :mod:`repro.baselines.brute_force`
            (exponential) instead of raising.
        exhaustive_validation: force exhaustive (True) or sampled (False)
            validation; the default picks exhaustive for up to 16 lines.
        validation_samples: probe count for sampled validation.

    Returns:
        A :class:`DecisionOutcome`.

    Raises:
        UnsupportedEquivalenceError: for hard classes when brute force is not
            allowed, and for the open N-P-without-inverses case.
    """
    if isinstance(equivalence, str):
        equivalence = EquivalenceType.from_label(equivalence)
    if c1.num_lines != c2.num_lines:
        return DecisionOutcome(equivalent=False, result=None, exhaustive=True)

    if exhaustive_validation is None:
        exhaustive_validation = c1.num_lines <= 16

    engine = get_default_engine()
    hardness = classify(equivalence)
    if hardness is Hardness.UNIQUE_SAT_HARD:
        if not allow_brute_force:
            raise UnsupportedEquivalenceError(
                f"{equivalence.label} is UNIQUE-SAT-hard; pass "
                "allow_brute_force=True to run the exponential search"
            )
        try:
            # Resolves to the dispatch table's opt-in brute-force row.
            result = engine.match(
                c1, c2, equivalence, rng=rng, allow_brute_force=True
            )
        except MatchingError:
            return DecisionOutcome(
                equivalent=False, result=None, exhaustive=True
            )
        return DecisionOutcome(equivalent=True, result=result, exhaustive=True)

    try:
        result = engine.match(
            c1,
            c2,
            equivalence,
            epsilon=epsilon,
            rng=rng,
            allow_quantum=allow_quantum,
        )
    except UnsupportedEquivalenceError:
        # "No algorithm is available in this regime" is not the same as
        # "not equivalent"; let the caller decide how to proceed.
        raise
    except MatchingError:
        # Matchers only raise promise-violation style errors when the
        # circuits cannot be equivalent under the class (or a randomised
        # step failed, which the epsilon budget makes improbable).
        return DecisionOutcome(equivalent=False, result=None, exhaustive=False)

    valid = verify_match(
        c1,
        c2,
        equivalence,
        result,
        exhaustive=exhaustive_validation,
        samples=validation_samples,
        rng=rng,
    )
    return DecisionOutcome(
        equivalent=valid, result=result, exhaustive=exhaustive_validation
    )
