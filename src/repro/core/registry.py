"""Table 1 as one dispatch table.

The paper's Table 1 is a *capability matrix*: which X-Y equivalence classes
are tractable given which resources (inverse oracles, randomness, quantum
swap-test access).  :data:`TABLE` writes that matrix down: for every class,
its :class:`MatcherSpec` rows in resolution order, the fallback chain
**exact -> randomised -> quantum -> (opt-in) brute force**.  Each row names

* the :class:`Capability` set it *requires* (inverse access, quantum access,
  an explicit brute-force opt-in),
* its :class:`MatcherKind` (exact / randomised / quantum / brute force), and
* its query cost, e.g. ``"O(log n)"``.

Given the capabilities detected on a concrete oracle pair
(:func:`detect_capabilities`), :func:`resolve` picks the first eligible row.
When no row is eligible, :func:`explain` *generates* the
:class:`~repro.exceptions.UnsupportedEquivalenceError` message from the
class's rows (what each would need) instead of a hand-written string per
branch.

Every row's matcher has one signature::

    matcher(oracle1, oracle2, ctx: MatchContext) -> MatchingResult

where the oracles have already been coerced by the caller (the
:class:`~repro.core.engine.MatchingEngine` does this in exactly one place)
and :class:`~repro.core.problem.MatchContext` carries the runtime knobs
(rng, swap test, epsilon, query budget).
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.core.equivalence import EquivalenceType, Hardness, classify
from repro.core.matchers import fallback, i_i, i_n, i_np, i_p, n_i, n_p, np_i, p_i, p_n
from repro.exceptions import UnsupportedEquivalenceError
from repro.oracles.oracle import ReversibleOracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import MatchContext, MatchingResult

__all__ = [
    "Capability",
    "MatcherKind",
    "MatcherSpec",
    "TABLE",
    "resolve",
    "explain",
    "detect_capabilities",
]


class Capability(enum.Enum):
    """A resource a matcher may require (the columns of Table 1)."""

    #: At least one oracle exposes its inverse circuit.
    INVERSE = "inverse"
    #: Both oracles expose their inverse circuits (the ``**`` footnote: N-P).
    BOTH_INVERSES = "both-inverses"
    #: Simulated quantum access (swap tests / superposition queries) allowed.
    QUANTUM = "quantum"
    #: The caller explicitly opted into exponential brute-force search.
    BRUTE_FORCE = "brute-force"

    def __str__(self) -> str:
        return self.value


class MatcherKind(enum.Enum):
    """The paradigm of a matcher; also its fallback-chain tier."""

    EXACT = "exact"
    RANDOMIZED = "randomized"
    QUANTUM = "quantum"
    BRUTE_FORCE = "brute-force"

    def __str__(self) -> str:
        return self.value


MatcherFunc = Callable[..., "MatchingResult"]


@dataclass(frozen=True)
class MatcherSpec:
    """One row of the dispatch table.

    Attributes:
        name: unique (per class) identifier, e.g. ``"n-i/swap-test"``.
        func: the matcher with the uniform ``(oracle1, oracle2, ctx)``
            signature.
        requires: capabilities that must all be present for eligibility.
        kind: paradigm / fallback tier.
        cost: human-readable query complexity, e.g. ``"O(log n)"``.
    """

    name: str
    func: MatcherFunc
    requires: frozenset[Capability]
    kind: MatcherKind
    cost: str

    def supports(self, capabilities: Iterable[Capability]) -> bool:
        """Whether every required capability is present."""
        return self.requires <= frozenset(capabilities)

    def missing(self, capabilities: Iterable[Capability]) -> frozenset[Capability]:
        """The required capabilities not present in ``capabilities``."""
        return self.requires - frozenset(capabilities)

    def __call__(self, oracle1, oracle2, ctx) -> "MatchingResult":
        return self.func(oracle1, oracle2, ctx)

    def describe(self) -> str:
        """One-line rendering used in the generated error messages."""
        needs = (
            "no extra capabilities"
            if not self.requires
            else "requires {" + ", ".join(sorted(c.value for c in self.requires)) + "}"
        )
        return f"{self.name} [{self.kind.value}, {self.cost}] {needs}"


_ANY: frozenset[Capability] = frozenset()
_INVERSE = frozenset({Capability.INVERSE})
_BOTH_INVERSES = frozenset({Capability.BOTH_INVERSES})
_QUANTUM = frozenset({Capability.QUANTUM})

_EXACT = MatcherKind.EXACT
_RANDOMIZED = MatcherKind.RANDOMIZED

#: The polynomial rows of Table 1, per class, in resolution order.
_POLYNOMIAL: dict[EquivalenceType, tuple[MatcherSpec, ...]] = {
    EquivalenceType.I_I: (
        MatcherSpec("i-i/trivial", i_i.dispatch_i_i, _ANY, _EXACT, "O(1)"),
    ),
    EquivalenceType.I_N: (
        MatcherSpec("i-n/zero-probe", i_n.dispatch_i_n, _ANY, _EXACT, "O(1)"),
    ),
    EquivalenceType.I_P: (
        MatcherSpec("i-p/binary-code", i_p.dispatch_i_p, _INVERSE, _EXACT, "O(log n)"),
        MatcherSpec(
            "i-p/output-sequences",
            i_p.dispatch_i_p,
            _ANY,
            _RANDOMIZED,
            "O(log n + log 1/eps)",
        ),
    ),
    EquivalenceType.I_NP: (
        MatcherSpec(
            "i-np/binary-code", i_np.dispatch_i_np, _INVERSE, _EXACT, "O(log n)"
        ),
        MatcherSpec(
            "i-np/output-sequences",
            i_np.dispatch_i_np,
            _ANY,
            _RANDOMIZED,
            "O(log n + log 1/eps)",
        ),
    ),
    EquivalenceType.P_I: (
        MatcherSpec("p-i/binary-code", p_i.dispatch_p_i, _INVERSE, _EXACT, "O(log n)"),
        MatcherSpec("p-i/one-hot", p_i.dispatch_p_i, _ANY, _EXACT, "O(n)"),
    ),
    EquivalenceType.P_N: (
        MatcherSpec("p-n/binary-code", p_n.dispatch_p_n, _INVERSE, _EXACT, "O(log n)"),
        MatcherSpec("p-n/one-hot", p_n.dispatch_p_n, _ANY, _EXACT, "O(n)"),
    ),
    EquivalenceType.N_I: (
        MatcherSpec("n-i/inverse-probe", n_i.dispatch_n_i, _INVERSE, _EXACT, "O(1)"),
        MatcherSpec(
            "n-i/swap-test",
            n_i.dispatch_n_i_quantum,
            _QUANTUM,
            MatcherKind.QUANTUM,
            "O(n log 1/eps)",
        ),
        MatcherSpec(
            "n-i/simon", n_i.dispatch_n_i_simon, _QUANTUM, MatcherKind.QUANTUM, "O(n)"
        ),
    ),
    EquivalenceType.NP_I: (
        MatcherSpec(
            "np-i/binary-code", np_i.dispatch_np_i, _INVERSE, _EXACT, "O(log n)"
        ),
        MatcherSpec(
            "np-i/swap-test",
            np_i.dispatch_np_i_quantum,
            _QUANTUM,
            MatcherKind.QUANTUM,
            "O(n^2 log 1/eps)",
        ),
    ),
    EquivalenceType.N_P: (
        MatcherSpec(
            "n-p/inverse-pair", n_p.dispatch_n_p, _BOTH_INVERSES, _EXACT, "O(log n)"
        ),
    ),
}


def _brute_force(equivalence: EquivalenceType) -> tuple[MatcherSpec, ...]:
    """The opt-in last row: every class but I-I, which has nothing to find."""
    if equivalence is EquivalenceType.I_I:
        return ()
    return (
        MatcherSpec(
            f"{equivalence.label.lower()}/brute-force",
            partial(fallback.dispatch_brute_force, equivalence),
            frozenset({Capability.BRUTE_FORCE}),
            MatcherKind.BRUTE_FORCE,
            "O(2^n poly)",
        ),
    )


#: Every class's rows in resolution order.  A UNIQUE-SAT-hard class has
#: only its brute-force row.
TABLE: dict[EquivalenceType, tuple[MatcherSpec, ...]] = {
    equivalence: _POLYNOMIAL.get(equivalence, ()) + _brute_force(equivalence)
    for equivalence in EquivalenceType
}


def resolve(
    equivalence: EquivalenceType,
    capabilities: Iterable[Capability],
) -> MatcherSpec:
    """Pick the first eligible row for the detected capabilities.

    Raises:
        UnsupportedEquivalenceError: when nothing is eligible; the
            message is generated from the class's rows.
    """
    capability_set = frozenset(capabilities)
    for spec in TABLE[equivalence]:
        if spec.supports(capability_set):
            return spec
    raise UnsupportedEquivalenceError(explain(equivalence, capability_set))


def explain(
    equivalence: EquivalenceType,
    capabilities: Iterable[Capability],
) -> str:
    """Why no row is eligible, derived from the class's rows."""
    capability_set = frozenset(capabilities)
    hardness = classify(equivalence)
    have = "{" + ", ".join(sorted(c.value for c in capability_set)) + "}"
    lines = [
        f"no {equivalence.label} matcher is eligible with capabilities "
        f"{have} (class is {hardness.value})"
    ]
    for spec in TABLE[equivalence]:
        missing = spec.missing(capability_set)
        lines.append(
            f"  - {spec.describe()}; missing "
            "{" + ", ".join(sorted(c.value for c in missing)) + "}"
        )
    if hardness is Hardness.UNIQUE_SAT_HARD:
        lines.append(
            "the class is no easier than UNIQUE-SAT (Theorems 2 and 3); "
            "see repro.core.hardness for the reductions"
        )
    return "\n".join(lines)


def detect_capabilities(
    target1,
    target2,
    ctx: "MatchContext | None" = None,
) -> frozenset[Capability]:
    """Detect the capabilities a concrete oracle pair offers.

    Inverse capabilities are read off the oracles (only classical
    :class:`~repro.oracles.oracle.ReversibleOracle` instances can expose an
    inverse); quantum access and the brute-force opt-in come from the
    :class:`~repro.core.problem.MatchContext` flags.
    """

    def has_inverse(target) -> bool:
        return isinstance(target, ReversibleOracle) and target.has_inverse

    capabilities: set[Capability] = set()
    inverse1 = has_inverse(target1)
    inverse2 = has_inverse(target2)
    if inverse1 or inverse2:
        capabilities.add(Capability.INVERSE)
    if inverse1 and inverse2:
        capabilities.add(Capability.BOTH_INVERSES)
    if ctx is None or ctx.allow_quantum:
        capabilities.add(Capability.QUANTUM)
    if ctx is not None and ctx.allow_brute_force:
        capabilities.add(Capability.BRUTE_FORCE)
    return frozenset(capabilities)
