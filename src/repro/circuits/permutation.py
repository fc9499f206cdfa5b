"""Permutations over ``range(2**n)`` — the functional view of a circuit.

Every ``n``-bit reversible circuit implements a bijection
``f : B^n -> B^n``, i.e. a permutation of ``range(2**n)`` once bit vectors
are packed into integers.  :class:`Permutation` is that functional view:
it can be extracted from a circuit, composed, inverted, compared, and (via
:mod:`repro.synthesis`) turned back into a circuit.

The class is also the workhorse of the white-box equivalence checker used by
tests and by the brute-force baselines.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.circuits.evaluate import tabulate
from repro.exceptions import PermutationError

__all__ = ["Permutation"]


class Permutation:
    """A permutation of ``range(2**num_bits)``.

    Args:
        mapping: sequence of length ``2**num_bits`` where ``mapping[x]`` is
            the image of ``x``.
        num_bits: number of bits ``n``.  If omitted it is inferred from the
            mapping length (which must then be a power of two).
    """

    def __init__(self, mapping: Sequence[int], num_bits: int | None = None) -> None:
        mapping = tuple(mapping)
        size = len(mapping)
        if num_bits is None:
            num_bits = size.bit_length() - 1
        if size != 1 << num_bits:
            raise PermutationError(
                f"mapping length {size} is not 2**{num_bits}"
            )
        if sorted(mapping) != list(range(size)):
            raise PermutationError("mapping is not a permutation of range(2**n)")
        self._mapping = mapping
        self._num_bits = num_bits
        self._index_array: np.ndarray | None = None

    # -- constructors --------------------------------------------------------
    @classmethod
    def identity(cls, num_bits: int) -> "Permutation":
        """The identity permutation on ``num_bits`` bits."""
        return cls(list(range(1 << num_bits)), num_bits)

    @classmethod
    def from_circuit(cls, circuit) -> "Permutation":
        """Exhaustively tabulate ``circuit`` into its permutation.

        Exponential in the line count; intended for white-box analysis of
        small circuits.
        """
        return cls(tabulate(circuit).tolist(), circuit.num_lines)

    @classmethod
    def from_function(cls, function: Callable[[int], int], num_bits: int) -> "Permutation":
        """Tabulate ``function`` over all ``2**num_bits`` inputs."""
        return cls([function(value) for value in range(1 << num_bits)], num_bits)

    # -- structure -----------------------------------------------------------
    @property
    def num_bits(self) -> int:
        """Number of bits ``n``."""
        return self._num_bits

    @property
    def size(self) -> int:
        """Domain size ``2**n``."""
        return len(self._mapping)

    @property
    def mapping(self) -> tuple[int, ...]:
        """The raw mapping table as an immutable tuple (never copied)."""
        return self._mapping

    def index_array(self) -> np.ndarray:
        """The mapping as a read-only ``np.intp`` array, built on first use.

        What state-vector code indexes with; cached so repeated quantum
        queries against one permutation convert the table once.
        """
        if self._index_array is None:
            array = np.asarray(self._mapping, dtype=np.intp)
            array.flags.writeable = False
            self._index_array = array
        return self._index_array

    # -- semantics -----------------------------------------------------------
    def __call__(self, value: int) -> int:
        """Apply the permutation to ``value``."""
        return self._mapping[value]

    def inverse(self) -> "Permutation":
        """The inverse permutation."""
        inverse = [0] * len(self._mapping)
        for source, image in enumerate(self._mapping):
            inverse[image] = source
        return Permutation(inverse, self._num_bits)

    def compose(self, inner: "Permutation") -> "Permutation":
        """The composition ``self o inner`` (``inner`` applied first)."""
        if inner._num_bits != self._num_bits:
            raise PermutationError(
                "cannot compose permutations on different bit counts "
                f"({self._num_bits} vs {inner._num_bits})"
            )
        return Permutation(
            [self._mapping[inner._mapping[value]] for value in range(self.size)],
            self._num_bits,
        )

    def __matmul__(self, inner: "Permutation") -> "Permutation":
        return self.compose(inner)

    def is_identity(self) -> bool:
        """Whether this is the identity permutation."""
        return all(image == value for value, image in enumerate(self._mapping))

    # -- analysis ------------------------------------------------------------
    def cycles(self) -> list[tuple[int, ...]]:
        """The cycle decomposition, fixed points omitted."""
        seen = [False] * self.size
        cycles: list[tuple[int, ...]] = []
        for start in range(self.size):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            current = self._mapping[start]
            while current != start:
                cycle.append(current)
                seen[current] = True
                current = self._mapping[current]
            if len(cycle) > 1:
                cycles.append(tuple(cycle))
        return cycles

    def order(self) -> int:
        """The multiplicative order (lcm of cycle lengths)."""
        from math import lcm

        lengths = [len(cycle) for cycle in self.cycles()]
        return lcm(*lengths) if lengths else 1

    def parity(self) -> int:
        """0 for an even permutation, 1 for an odd one."""
        swaps = sum(len(cycle) - 1 for cycle in self.cycles())
        return swaps & 1

    # -- dunder plumbing -----------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._num_bits == other._num_bits and self._mapping == other._mapping

    def __hash__(self) -> int:
        return hash((self._num_bits, self._mapping))

    def __repr__(self) -> str:
        return f"<Permutation bits={self._num_bits} mapping={list(self._mapping)}>"
