"""Shared machinery for the polynomial matchers.

Three techniques recur across Section 4 and are factored out here:

* :func:`identify_line_permutation` — the ``ceil(log2 n)`` binary-code
  pattern trick of Section 4.2 for reading off a pure wire permutation from
  a composite circuit known to equal ``C_pi``;
* :func:`match_output_sequences` — the randomised output-sequence matching
  of Sections 4.2/4.3 used when no inverse is available;
* :func:`repetitions_for_sequences` / :func:`repetitions_for_swap_test` —
  the repetition counts derived from Eq. (1) and from the swap-test failure
  analysis, and :func:`swap_tests_see_one`, the repeated swap test of
  Sections 4.5/4.6.

All helpers count queries only through the oracle objects they are handed,
so the callers' query accounting stays exact.
"""

from __future__ import annotations

import math
import random as _random
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.circuits.line_permutation import LinePermutation
from repro.circuits.random import coerce_rng
from repro.exceptions import MatchingError, PromiseViolationError
from repro.oracles.oracle import ReversibleOracle

if TYPE_CHECKING:
    from repro.quantum.oracle import QuantumCircuitOracle
    from repro.quantum.statevector import Statevector
    from repro.quantum.swap_test import SwapTest

__all__ = [
    "log2_ceil",
    "repetitions_for_sequences",
    "repetitions_for_swap_test",
    "swap_tests_see_one",
    "binary_code_patterns",
    "identify_line_permutation",
    "match_output_sequences",
    "QuerySnapshot",
]


def log2_ceil(value: int) -> int:
    """``ceil(log2(value))`` for positive integers (0 for value <= 1)."""
    if value <= 1:
        return 0
    return (value - 1).bit_length()


def repetitions_for_sequences(num_lines: int, epsilon: float, allow_flip: bool) -> int:
    """Sequence length ``k`` for the randomised matchers (Eq. 1).

    The failure event is two distinct output lines of ``C2`` sharing a
    sequence (or, when negations are allowed, a sequence's complement); the
    union bound over at most ``n(n-1)`` (ordered) pairs gives
    ``k >= log2(n(n-1)/epsilon)``, plus one extra bit when complements also
    collide.
    """
    if num_lines <= 1:
        return 1
    if not 0.0 < epsilon < 1.0:
        raise MatchingError(f"epsilon must be in (0, 1), got {epsilon}")
    pairs = num_lines * (num_lines - 1)
    k = math.ceil(math.log2(pairs / epsilon))
    if allow_flip:
        k += 1
    return max(k, 1)


def repetitions_for_swap_test(epsilon: float) -> int:
    """Swap-test repetitions ``k >= log2(1/epsilon)`` (Section 4.5)."""
    if not 0.0 < epsilon < 1.0:
        raise MatchingError(f"epsilon must be in (0, 1), got {epsilon}")
    return max(1, math.ceil(math.log2(1.0 / epsilon)))


def swap_tests_see_one(
    oracle1: QuantumCircuitOracle,
    probe1: Statevector,
    oracle2: QuantumCircuitOracle,
    probe2: Statevector,
    tester: SwapTest,
    repetitions: int,
) -> bool:
    """Whether any of ``repetitions`` swap tests of ``C1|probe1>`` against
    ``C2|probe2>`` measures 1; each repetition charges one query per oracle
    and one swap test, and stops the loop on a 1."""
    for _ in range(repetitions):
        output1 = oracle1.query_state(probe1)
        output2 = oracle2.query_state(probe2)
        if tester.sample(output1, output2) == 1:
            return True
    return False


def binary_code_patterns(num_lines: int) -> list[int]:
    """The ``ceil(log2 n)`` probe patterns of Section 4.2.

    Pattern ``t`` assigns to line ``j`` the ``t``-th least significant bit of
    the binary code of ``j``; across patterns, line ``j`` therefore carries
    the unique sequence "binary code of j, LSB first".
    """
    patterns = []
    for t in range(log2_ceil(num_lines)):
        pattern = 0
        for line in range(num_lines):
            if (line >> t) & 1:
                pattern |= 1 << line
        patterns.append(pattern)
    return patterns


def identify_line_permutation(
    query_many: Callable[[list[int]], list[int]],
    num_lines: int,
) -> LinePermutation:
    """Identify ``pi`` given query access to a circuit equal to ``C_pi``.

    ``query_many`` must implement the wire permutation "output line
    ``pi(i)`` carries input line ``i``" over a batch of probes, typically
    composed from the oracles' ``query_many``/``query_inverse_many``; it is
    called once, on the ``ceil(log2 n)`` binary-code patterns, so the
    probe set is evaluated in one bitsliced pass while each pattern is
    still charged as one query.

    Raises:
        PromiseViolationError: if the responses are not consistent with any
            wire permutation (the promise does not hold).
    """
    if num_lines == 1:
        return LinePermutation([0])
    responses = query_many(binary_code_patterns(num_lines))
    mapping: list[int | None] = [None] * num_lines
    for output_line in range(num_lines):
        source = 0
        for t, response in enumerate(responses):
            if (response >> output_line) & 1:
                source |= 1 << t
        if source >= num_lines:
            raise PromiseViolationError(
                "output sequence does not decode to a valid line index; the "
                "circuits are not equivalent under the promised class"
            )
        if mapping[source] is not None:
            raise PromiseViolationError(
                f"two output lines decode to input line {source}; the "
                "circuits are not equivalent under the promised class"
            )
        mapping[source] = output_line
    return LinePermutation([value for value in mapping if value is not None])


def match_output_sequences(
    oracle1: ReversibleOracle,
    oracle2: ReversibleOracle,
    epsilon: float,
    rng: _random.Random | int | None,
    allow_flip: bool,
) -> tuple[LinePermutation, list[bool]]:
    """Randomised output-sequence matching (Sections 4.2 and 4.3).

    Feeds ``k`` common random inputs to both oracles and matches each output
    line of ``C2`` to the unique output line of ``C1`` carrying the same
    (or, when ``allow_flip`` is set, the bitwise complemented) sequence.

    Returns:
        ``(pi, nu)`` with ``pi[j] = b`` meaning output line ``j`` of ``C2``
        appears as output line ``b`` of ``C1``, and ``nu[j]`` indicating the
        sequence was complemented (always False when ``allow_flip`` is off).

    Raises:
        MatchingError: if sequences collide (probability at most ``epsilon``
            under the promise) — the caller may retry with a fresh seed.
        PromiseViolationError: if some line of ``C2`` has no counterpart.
    """
    num_lines = oracle1.num_lines
    rng = coerce_rng(rng)
    if num_lines == 1:
        value = rng.getrandbits(1)
        bit1 = oracle1.query(value) & 1
        bit2 = oracle2.query(value) & 1
        flipped = bit1 != bit2
        if flipped and not allow_flip:
            raise PromiseViolationError(
                "single-line circuits differ but negation is not allowed"
            )
        return LinePermutation([0]), [flipped]

    k = repetitions_for_sequences(num_lines, epsilon, allow_flip)
    # Draw all probes first (same rng call sequence as the per-round loop),
    # then evaluate each oracle's batch in one bitsliced pass; accounting
    # is unchanged — query_many charges one query per probe.
    probes = [rng.getrandbits(num_lines) for _ in range(k)]
    responses1 = oracle1.query_many(probes)
    responses2 = oracle2.query_many(probes)
    sequences1 = [0] * num_lines
    sequences2 = [0] * num_lines
    for round_index in range(k):
        response1 = responses1[round_index]
        response2 = responses2[round_index]
        for line in range(num_lines):
            if (response1 >> line) & 1:
                sequences1[line] |= 1 << round_index
            if (response2 >> line) & 1:
                sequences2[line] |= 1 << round_index

    full_mask = (1 << k) - 1
    index_of_sequence: dict[int, int] = {}
    for line, sequence in enumerate(sequences1):
        if sequence in index_of_sequence:
            raise MatchingError(
                "output-sequence collision in C1; retry with a fresh seed or a "
                "smaller epsilon"
            )
        index_of_sequence[sequence] = line

    mapping: list[int] = []
    negation: list[bool] = []
    used: set[int] = set()
    for line, sequence in enumerate(sequences2):
        direct = index_of_sequence.get(sequence)
        flipped = index_of_sequence.get(sequence ^ full_mask) if allow_flip else None
        if direct is not None and flipped is not None:
            raise MatchingError(
                "ambiguous output-sequence match; retry with a fresh seed or a "
                "smaller epsilon"
            )
        if direct is not None:
            target, is_flipped = direct, False
        elif flipped is not None:
            target, is_flipped = flipped, True
        else:
            raise PromiseViolationError(
                f"output line {line} of C2 has no matching line in C1; the "
                "circuits are not equivalent under the promised class"
            )
        if target in used:
            raise MatchingError(
                "two lines of C2 matched the same line of C1; retry with a "
                "fresh seed"
            )
        used.add(target)
        mapping.append(target)
        negation.append(is_flipped)
    return LinePermutation(mapping), negation


class QuerySnapshot:
    """Delta-based query accounting over a set of classical oracles."""

    def __init__(self, *oracles: ReversibleOracle) -> None:
        self._oracles = oracles
        self._initial = [oracle.total_queries for oracle in oracles]

    @property
    def queries(self) -> int:
        """Queries issued to the tracked oracles since the snapshot."""
        return sum(
            oracle.total_queries - initial
            for oracle, initial in zip(self._oracles, self._initial)
        )
