"""Random generators for circuits, permutations and matching witnesses.

Every generator takes an optional ``rng`` (a :class:`random.Random` instance
or an integer seed) so experiments and property-based tests are repeatable.
The benchmark harness uses these generators to manufacture the promised
X-Y-equivalent circuit pairs on which query counts are measured.
"""

from __future__ import annotations

import random as _random
from collections.abc import Sequence

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import Control, MCTGate
from repro.circuits.line_permutation import LinePermutation
from repro.circuits.permutation import Permutation

__all__ = [
    "coerce_rng",
    "random_negation",
    "random_line_permutation",
    "random_permutation",
    "random_mct_gate",
    "random_circuit",
]


def coerce_rng(rng: _random.Random | int | None) -> _random.Random:
    """Turn ``rng`` into a :class:`random.Random`.

    ``None`` produces a fresh unseeded generator, an integer seeds a new
    generator, and an existing generator is passed through unchanged.
    """
    if rng is None:
        return _random.Random()
    if isinstance(rng, int):
        return _random.Random(rng)
    return rng


def random_negation(
    num_lines: int, rng: _random.Random | int | None = None
) -> list[bool]:
    """A uniformly random negation function over ``num_lines`` lines."""
    rng = coerce_rng(rng)
    return [bool(rng.getrandbits(1)) for _ in range(num_lines)]


def random_line_permutation(
    num_lines: int, rng: _random.Random | int | None = None
) -> LinePermutation:
    """A uniformly random permutation of the circuit lines."""
    rng = coerce_rng(rng)
    mapping = list(range(num_lines))
    rng.shuffle(mapping)
    return LinePermutation(mapping)


def random_permutation(
    num_bits: int, rng: _random.Random | int | None = None
) -> Permutation:
    """A uniformly random permutation of ``range(2**num_bits)``."""
    rng = coerce_rng(rng)
    mapping = list(range(1 << num_bits))
    rng.shuffle(mapping)
    return Permutation(mapping, num_bits)


def random_mct_gate(
    num_lines: int,
    rng: _random.Random | int | None = None,
    max_controls: int | None = None,
    allow_negative_controls: bool = True,
) -> MCTGate:
    """A random MCT gate on ``num_lines`` lines.

    The control count is chosen uniformly between 0 and
    ``min(max_controls, num_lines - 1)``.
    """
    rng = coerce_rng(rng)
    if max_controls is None:
        max_controls = num_lines - 1
    max_controls = min(max_controls, num_lines - 1)
    target = rng.randrange(num_lines)
    num_controls = rng.randint(0, max_controls)
    candidates = [line for line in range(num_lines) if line != target]
    control_lines = rng.sample(candidates, num_controls)
    controls = tuple(
        Control(line, bool(rng.getrandbits(1)) if allow_negative_controls else True)
        for line in control_lines
    )
    return MCTGate(controls, target)


def random_circuit(
    num_lines: int,
    num_gates: int,
    rng: _random.Random | int | None = None,
    max_controls: int | None = None,
    allow_negative_controls: bool = True,
    name: str | None = None,
) -> ReversibleCircuit:
    """A random MCT cascade with ``num_gates`` gates.

    Random MCT cascades are the standard way to produce "generic" reversible
    functions for query-count experiments: they have no structure a matcher
    could exploit beyond the oracle interface.
    """
    rng = coerce_rng(rng)
    circuit = ReversibleCircuit(num_lines, name=name or "random")
    for _ in range(num_gates):
        circuit.append(
            random_mct_gate(
                num_lines,
                rng,
                max_controls=max_controls,
                allow_negative_controls=allow_negative_controls,
            )
        )
    return circuit
