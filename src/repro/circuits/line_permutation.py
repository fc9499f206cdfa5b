"""Line permutations — the ``pi`` objects of the paper.

Problem 1 of the paper asks for permutation functions
``pi : {1, ..., n} -> {1, ..., n}`` where ``pi(i) = j`` means "the i-th bit
is permuted to the j-th bit".  :class:`LinePermutation` is that object with
0-based indices: ``pi[i] = j`` moves line ``i``'s value to line ``j``.

A line permutation acts on bit vectors (output bit ``pi[i]`` = input bit
``i``) and can be realised as a swap-gate circuit ``C_pi`` via
:func:`repro.circuits.transforms.permutation_circuit`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.exceptions import PermutationError

__all__ = ["LinePermutation"]


class LinePermutation:
    """A permutation of the ``n`` circuit lines.

    Args:
        mapping: sequence of length ``n`` with ``mapping[i] = j`` meaning
            line ``i`` is sent to line ``j`` (paper notation ``pi(i) = j``).
    """

    def __init__(self, mapping: Sequence[int]) -> None:
        mapping = list(mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise PermutationError(
                f"{mapping!r} is not a permutation of range({len(mapping)})"
            )
        self._mapping = mapping

    # -- constructors --------------------------------------------------------
    @classmethod
    def identity(cls, num_lines: int) -> "LinePermutation":
        """The identity line permutation on ``num_lines`` lines."""
        return cls(list(range(num_lines)))

    # -- structure -----------------------------------------------------------
    @property
    def num_lines(self) -> int:
        """Number of circuit lines ``n``."""
        return len(self._mapping)

    @property
    def mapping(self) -> tuple[int, ...]:
        """The raw mapping as an immutable tuple (``mapping[i] = pi(i)``)."""
        return tuple(self._mapping)

    def __getitem__(self, line: int) -> int:
        return self._mapping[line]

    def __iter__(self) -> Iterator[int]:
        return iter(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    # -- semantics -----------------------------------------------------------
    # The defining action of ``pi`` on bit vectors (Problem 1); the tests
    # hold ``C_pi`` and every transform to it.
    # repro: allow[drift-test-only-api]
    def apply_to_vector(self, value: int) -> int:
        """Apply to an integer bit vector: output bit ``pi[i]`` = input bit ``i``."""
        result = 0
        for source, destination in enumerate(self._mapping):
            if (value >> source) & 1:
                result |= 1 << destination
        return result

    def inverse(self) -> "LinePermutation":
        """The inverse line permutation."""
        inverse = [0] * len(self._mapping)
        for source, destination in enumerate(self._mapping):
            inverse[destination] = source
        return LinePermutation(inverse)

    def compose(self, inner: "LinePermutation") -> "LinePermutation":
        """The composition ``self o inner`` (``inner`` applied first).

        ``(self.compose(inner))[i] == self[inner[i]]`` — first move line
        ``i`` to ``inner[i]``, then to ``self[inner[i]]``.
        """
        if inner.num_lines != self.num_lines:
            raise PermutationError(
                "cannot compose line permutations of different sizes "
                f"({self.num_lines} vs {inner.num_lines})"
            )
        return LinePermutation([self._mapping[j] for j in inner._mapping])

    def __matmul__(self, inner: "LinePermutation") -> "LinePermutation":
        return self.compose(inner)

    def is_identity(self) -> bool:
        """Whether this is the identity permutation."""
        return all(destination == line for line, destination in enumerate(self._mapping))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition on lines, fixed lines omitted."""
        seen = [False] * self.num_lines
        cycles: list[tuple[int, ...]] = []
        for start in range(self.num_lines):
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

    # -- dunder plumbing -----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, LinePermutation):
            return self._mapping == other._mapping
        if isinstance(other, (list, tuple)):
            return self._mapping == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._mapping))

    def __repr__(self) -> str:
        return f"LinePermutation({self._mapping!r})"
