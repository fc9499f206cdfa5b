"""Context and result types for Boolean matching.

A matcher consumes two oracles and a :class:`MatchContext` (which runtime
resources/knobs apply) and produces a :class:`MatchingResult`: the
negation/permutation witnesses of Problem 1 plus the query accounting the
complexity experiments need.  The uniform ``matcher(oracle1, oracle2, ctx)``
signature is what the :mod:`repro.core.registry` table dispatches on.
"""

from __future__ import annotations

import random as _random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.circuits.line_permutation import LinePermutation
from repro.core.equivalence import EquivalenceType
from repro.exceptions import MatchingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.swap_test import SwapTest

__all__ = ["MatchContext", "MatchingResult"]


@dataclass
class MatchContext:
    """Runtime resources handed to a dispatched matcher.

    The dispatch table gives every matcher one uniform signature; the
    randomness, a pre-configured swap test, the failure budget and a query
    budget travel here.

    Attributes:
        epsilon: admissible failure probability for randomised/quantum
            matchers.
        rng: randomness source (seed or ``random.Random``) for
            repeatability; ``None`` draws fresh randomness.
        swap_test: optionally a pre-configured
            :class:`~repro.quantum.swap_test.SwapTest` instance.
        max_queries: optional hard per-oracle query budget for oracles
            built on behalf of this request: the engine applies it when
            coercing classical oracles, and the quantum adapters apply it
            when lifting to quantum oracles.  Pre-built oracles keep their
            own budget.
        allow_quantum: permit the simulated quantum matchers.
        allow_brute_force: permit the exponential brute-force fallback.
    """

    epsilon: float = 1e-3
    rng: _random.Random | int | None = None
    swap_test: "SwapTest | None" = None
    max_queries: int | None = None
    allow_quantum: bool = True
    allow_brute_force: bool = False


@dataclass
class MatchingResult:
    """Witnesses returned by a matcher.

    The four witness fields correspond to Problem 1's ``nu_x``, ``pi_x``,
    ``nu_y`` and ``pi_y``; fields not applicable to the equivalence class are
    ``None``.  The convention for reconstructing ``C1`` from ``C2`` is::

        C1 = C_pi_y . C_nu_y . C2 . C_pi_x . C_nu_x

    i.e. on each side the negation layer is applied before the permutation
    layer (the canonical NP order; Fig. 4 converts to the other order).

    Attributes:
        equivalence: the class that was matched.
        nu_x: input negation function (tuple of bools) or ``None``.
        pi_x: input line permutation or ``None``.
        nu_y: output negation function or ``None``.
        pi_y: output line permutation or ``None``.
        queries: total classical oracle queries consumed by the matcher.
        quantum_queries: total quantum oracle queries consumed.
        swap_tests: number of swap tests performed (quantum matchers only).
        metadata: free-form extra information (repetition counts, regime, ...).
    """

    equivalence: EquivalenceType
    nu_x: tuple[bool, ...] | None = None
    pi_x: LinePermutation | None = None
    nu_y: tuple[bool, ...] | None = None
    pi_y: LinePermutation | None = None
    queries: int = 0
    quantum_queries: int = 0
    swap_tests: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nu_x is not None:
            self.nu_x = tuple(bool(value) for value in self.nu_x)
        if self.nu_y is not None:
            self.nu_y = tuple(bool(value) for value in self.nu_y)
        if self.pi_x is not None and not isinstance(self.pi_x, LinePermutation):
            self.pi_x = LinePermutation(self.pi_x)
        if self.pi_y is not None and not isinstance(self.pi_y, LinePermutation):
            self.pi_y = LinePermutation(self.pi_y)

    # -- convenience accessors -------------------------------------------------
    @property
    def total_queries(self) -> int:
        """Classical plus quantum queries."""
        return self.queries + self.quantum_queries

    def require_nu_x(self) -> tuple[bool, ...]:
        """The input negation, raising if the matcher did not produce one."""
        if self.nu_x is None:
            raise MatchingError("result has no input negation function")
        return self.nu_x

    def require_pi_x(self) -> LinePermutation:
        """The input permutation, raising if the matcher did not produce one."""
        if self.pi_x is None:
            raise MatchingError("result has no input permutation function")
        return self.pi_x

    def describe(self) -> str:
        """A short human-readable rendering of the witnesses."""

        def render_nu(nu: Sequence[bool] | None) -> str:
            if nu is None:
                return "-"
            return "".join("1" if value else "0" for value in nu)

        def render_pi(pi: LinePermutation | None) -> str:
            if pi is None:
                return "-"
            return "(" + " ".join(str(value) for value in pi.mapping) + ")"

        return (
            f"{self.equivalence.label}: nu_x={render_nu(self.nu_x)} "
            f"pi_x={render_pi(self.pi_x)} nu_y={render_nu(self.nu_y)} "
            f"pi_y={render_pi(self.pi_y)} queries={self.queries}"
            + (f" quantum={self.quantum_queries}" if self.quantum_queries else "")
        )
