"""Reversible gates.

The paper (Section 2.1) represents reversible circuits as cascades of
multiple-controlled Toffoli (MCT) gates.  An MCT gate has ``k >= 0`` control
lines, each of positive polarity (fires on 1, drawn as a solid dot) or
negative polarity (fires on 0, drawn as an empty circle), and one target
line whose value is flipped exactly when every control is satisfied.  The
``k = 0`` and ``k = 1`` special cases are the NOT and CNOT gates.

For convenience the substrate also offers a :class:`SwapGate` (exchanging two
lines) and a controlled swap (Fredkin) built from MCT gates; both are used by
the line-permutation circuits ``C_pi`` and by the swap-test plumbing.

All gates are immutable value objects: they hash, compare by value, know how
to apply themselves to an integer bit vector and how to invert themselves
(every gate here is self-inverse).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import attrgetter

from repro.exceptions import GateError

__all__ = [
    "Control",
    "Gate",
    "MCTGate",
    "SwapGate",
    "not_gate",
    "cnot",
    "toffoli",
    "mct",
    "fredkin",
]


@dataclass(frozen=True, order=True)
class Control:
    """A control connection of an MCT gate.

    Attributes:
        line: index of the controlled circuit line (0-based).
        positive: ``True`` for a positive control (fires when the line is 1),
            ``False`` for a negative control (fires when the line is 0).
    """

    line: int
    positive: bool = True

    def __post_init__(self) -> None:
        if self.line < 0:
            raise GateError(f"control line must be non-negative, got {self.line}")

    def is_satisfied_by(self, value: int) -> bool:
        """Whether this control fires for the bit vector ``value``."""
        bit = (value >> self.line) & 1
        return bool(bit) == self.positive

    def __str__(self) -> str:
        prefix = "" if self.positive else "~"
        return f"{prefix}x{self.line}"


#: Sort key of controls within a gate.
_CONTROL_LINE = attrgetter("line")


class Gate(ABC):
    """Abstract base class of all reversible gates."""

    @property
    @abstractmethod
    def lines(self) -> frozenset[int]:
        """The set of circuit lines this gate touches (controls + targets)."""

    @property
    @abstractmethod
    def max_line(self) -> int:
        """The largest line index used by the gate."""

    @abstractmethod
    def apply(self, value: int) -> int:
        """Apply the gate to the integer bit vector ``value``."""

    @abstractmethod
    def inverse(self) -> "Gate":
        """The inverse gate (all gates in this module are self-inverse)."""

    @abstractmethod
    def remapped(self, line_map: Sequence[int]) -> "Gate":
        """A copy of the gate with every line ``i`` replaced by ``line_map[i]``."""


@dataclass(frozen=True)
class MCTGate(Gate):
    """A multiple-controlled Toffoli gate.

    Attributes:
        controls: tuple of :class:`Control` objects; may be empty (NOT gate).
        target: index of the target line whose value is conditionally flipped.
    """

    controls: tuple[Control, ...]
    target: int

    def __post_init__(self) -> None:
        if self.target < 0:
            raise GateError(f"target line must be non-negative, got {self.target}")
        seen: set[int] = set()
        for control in self.controls:
            if control.line == self.target:
                raise GateError(
                    f"control on line {control.line} overlaps the target line"
                )
            if control.line in seen:
                raise GateError(f"duplicate control on line {control.line}")
            seen.add(control.line)
        # Normalise control order so structural equality ignores listing order.
        # Lines are distinct by now, so ordering by line alone is the same
        # order as the dataclass ordering on (line, positive).
        object.__setattr__(
            self, "controls", tuple(sorted(self.controls, key=_CONTROL_LINE))
        )

    # -- basic structure ---------------------------------------------------
    @property
    def num_controls(self) -> int:
        """Number of control lines (``k`` in the paper's notation)."""
        return len(self.controls)

    @property
    def lines(self) -> frozenset[int]:
        return frozenset(control.line for control in self.controls) | {self.target}

    @property
    def max_line(self) -> int:
        # Controls are sorted by line, so the last one holds the largest.
        if self.controls:
            return max(self.target, self.controls[-1].line)
        return self.target

    @property
    def control_lines(self) -> tuple[int, ...]:
        """The control line indices in ascending order."""
        return tuple(control.line for control in self.controls)

    # -- semantics ----------------------------------------------------------
    def is_active(self, value: int) -> bool:
        """Whether all controls are satisfied by the bit vector ``value``."""
        return all(control.is_satisfied_by(value) for control in self.controls)

    def apply(self, value: int) -> int:
        if self.is_active(value):
            return value ^ (1 << self.target)
        return value

    def inverse(self) -> "MCTGate":
        """MCT gates are involutions, so the inverse is the gate itself."""
        return self

    def remapped(self, line_map: Sequence[int]) -> "MCTGate":
        controls = tuple(
            Control(line_map[control.line], control.positive)
            for control in self.controls
        )
        return MCTGate(controls, line_map[self.target])

    def __str__(self) -> str:
        if not self.controls:
            return f"NOT(x{self.target})"
        controls = ", ".join(str(control) for control in self.controls)
        return f"MCT([{controls}] -> x{self.target})"


@dataclass(frozen=True)
class SwapGate(Gate):
    """A gate exchanging the values of two lines.

    Line-permutation circuits ``C_pi`` are built from swaps.  A swap is
    logically equivalent to three CNOTs; keeping it as a primitive makes
    permutation circuits compact and their intent obvious.
    """

    line_a: int
    line_b: int

    def __post_init__(self) -> None:
        if self.line_a < 0 or self.line_b < 0:
            raise GateError("swap lines must be non-negative")
        if self.line_a == self.line_b:
            raise GateError("swap lines must differ")
        # Normalise so SwapGate(a, b) == SwapGate(b, a).
        low, high = sorted((self.line_a, self.line_b))
        object.__setattr__(self, "line_a", low)
        object.__setattr__(self, "line_b", high)

    @property
    def lines(self) -> frozenset[int]:
        return frozenset((self.line_a, self.line_b))

    @property
    def max_line(self) -> int:
        return self.line_b

    def apply(self, value: int) -> int:
        bit_a = (value >> self.line_a) & 1
        bit_b = (value >> self.line_b) & 1
        if bit_a == bit_b:
            return value
        return value ^ (1 << self.line_a) ^ (1 << self.line_b)

    def inverse(self) -> "SwapGate":
        return self

    def remapped(self, line_map: Sequence[int]) -> "SwapGate":
        return SwapGate(line_map[self.line_a], line_map[self.line_b])

    def __str__(self) -> str:
        return f"SWAP(x{self.line_a}, x{self.line_b})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------
def not_gate(target: int) -> MCTGate:
    """The NOT gate on line ``target`` (an MCT gate with zero controls)."""
    return MCTGate((), target)


def cnot(control: int, target: int, positive: bool = True) -> MCTGate:
    """A CNOT with one control of the given polarity."""
    return MCTGate((Control(control, positive),), target)


def toffoli(control_a: int, control_b: int, target: int) -> MCTGate:
    """The standard (positively controlled) Toffoli gate."""
    return MCTGate((Control(control_a), Control(control_b)), target)


# The general MCT constructor beside ``cnot`` and ``toffoli``; the golden
# digest circuits are built with it.
# repro: allow[drift-test-only-api]
def mct(
    control_lines: Iterable[int],
    target: int,
    polarities: Iterable[bool] | None = None,
) -> MCTGate:
    """Build an MCT gate from control lines and optional polarities.

    Args:
        control_lines: the control line indices.
        target: the target line index.
        polarities: one boolean per control (``True`` = positive).  Defaults
            to all-positive.
    """
    control_lines = list(control_lines)
    if polarities is None:
        polarities = [True] * len(control_lines)
    else:
        polarities = list(polarities)
        if len(polarities) != len(control_lines):
            raise GateError(
                f"{len(control_lines)} controls but {len(polarities)} polarities"
            )
    controls = tuple(
        Control(line, positive) for line, positive in zip(control_lines, polarities)
    )
    return MCTGate(controls, target)


def fredkin(control: int, line_a: int, line_b: int) -> tuple[MCTGate, MCTGate, MCTGate]:
    """A controlled swap (Fredkin) as a three-gate MCT cascade."""
    return (
        cnot(line_b, line_a),
        MCTGate((Control(control), Control(line_a)), line_b),
        cnot(line_b, line_a),
    )
