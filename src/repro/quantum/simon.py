"""Simon's algorithm on the state-vector simulator.

Footnote 2 of the paper mentions that, besides the swap-test Algorithm 1,
the authors developed further quantum matching algorithms "inspired by
Simon's algorithm" that were omitted for space.  This module supplies the
missing substrate so the repository can include such a matcher
(:func:`repro.core.matchers.n_i.match_n_i_simon`):

* :class:`XorQueryOracle` — the standard XOR query model
  ``|x>|y> -> |x>|y XOR f(x)>`` for an arbitrary function
  ``f : B^m -> B^k``, with query counting;
* :func:`simon_sample` — one round of Simon's circuit (Hadamards, oracle,
  Hadamards, measure the input register), returning a vector orthogonal to
  the hidden period;
* :func:`find_hidden_period` — repeat sampling and solve the GF(2) system
  until the period is pinned down.

The promise required of ``f`` is Simon's: either ``f`` is injective (period
0) or there is a non-zero ``s`` with ``f(x) = f(x')`` iff ``x' = x XOR s``.
"""

from __future__ import annotations

import random as _random
from collections.abc import Callable, Sequence

import numpy as np

from repro.circuits.random import coerce_rng
from repro.exceptions import QuantumError
from repro.quantum.gf2 import rank, solve_unique_nullspace_vector

__all__ = ["XorQueryOracle", "simon_sample", "find_hidden_period"]


class XorQueryOracle:
    """Quantum XOR-query access to a classical function ``f : B^m -> B^k``.

    The oracle acts on ``m + k`` qubits (input register = qubits
    ``0 .. m-1``, output register = qubits ``m .. m+k-1``) as the basis
    permutation ``|x>|y> -> |x>|y XOR f(x)>``.  The function is tabulated
    once at construction, so the per-query cost is a vectorised index
    permutation.
    """

    def __init__(
        self,
        function: Callable[[int], int] | Sequence[int],
        input_bits: int,
        output_bits: int,
        max_queries: int | None = None,
    ) -> None:
        if input_bits <= 0 or output_bits <= 0:
            raise QuantumError("registers need at least one qubit each")
        self._input_bits = input_bits
        self._output_bits = output_bits
        self._max_queries = max_queries
        self._queries = 0
        size = 1 << input_bits
        if callable(function):
            table = [function(value) for value in range(size)]
        else:
            table = list(function)
            if len(table) != size:
                raise QuantumError(
                    f"function table has {len(table)} entries, expected {size}"
                )
        limit = 1 << output_bits
        if any(not 0 <= value < limit for value in table):
            raise QuantumError("function value does not fit the output register")
        self._table = np.asarray(table, dtype=np.intp)

    @property
    def num_qubits(self) -> int:
        """Total register width ``m + k``."""
        return self._input_bits + self._output_bits

    @property
    def input_bits(self) -> int:
        """Input register width ``m``."""
        return self._input_bits

    @property
    def output_bits(self) -> int:
        """Output register width ``k``."""
        return self._output_bits

    @property
    def query_count(self) -> int:
        """Number of queries (quantum XOR queries plus classical probes)."""
        return self._queries

    def classical_query(self, value: int) -> int:
        """Evaluate ``f`` on a classical input (counted like any query)."""
        if not 0 <= value < (1 << self._input_bits):
            raise QuantumError(
                f"input {value} does not fit the {self._input_bits}-bit register"
            )
        if self._max_queries is not None and self._queries >= self._max_queries:
            raise QuantumError(f"query budget of {self._max_queries} exhausted")
        self._queries += 1
        return int(self._table[value])

    def query_vector(self, amplitudes: np.ndarray) -> np.ndarray:
        """Apply the XOR-query permutation to a raw amplitude vector."""
        expected = 1 << self.num_qubits
        if amplitudes.shape != (expected,):
            raise QuantumError(
                f"state has {amplitudes.shape[0]} amplitudes, expected {expected}"
            )
        if self._max_queries is not None and self._queries >= self._max_queries:
            raise QuantumError(f"query budget of {self._max_queries} exhausted")
        self._queries += 1
        indices = np.arange(expected, dtype=np.intp)
        input_part = indices & ((1 << self._input_bits) - 1)
        output_part = indices >> self._input_bits
        new_output = output_part ^ self._table[input_part]
        new_indices = input_part | (new_output << self._input_bits)
        result = np.empty_like(amplitudes)
        result[new_indices] = amplitudes
        return result


def _hadamard_on_input_register(amplitudes: np.ndarray, input_bits: int) -> np.ndarray:
    """Apply H to every qubit of the input register (vectorised)."""
    total_qubits = int(np.log2(amplitudes.shape[0]))
    # Reshape to [output, input] and apply the Walsh-Hadamard transform along
    # the input axis, qubit by qubit.
    output_dim = 1 << (total_qubits - input_bits)
    work = amplitudes.reshape(output_dim, 1 << input_bits).copy()
    for qubit in range(input_bits):
        mask = 1 << qubit
        indices = np.arange(1 << input_bits)
        low = indices[(indices & mask) == 0]
        high = low | mask
        a = work[:, low]
        b = work[:, high]
        work[:, low] = (a + b) / np.sqrt(2.0)
        work[:, high] = (a - b) / np.sqrt(2.0)
    return work.reshape(-1)


def simon_sample(
    oracle: XorQueryOracle, rng: _random.Random | int | None = None
) -> int:
    """One round of Simon's circuit: returns ``y`` with ``y . s = 0``."""
    rng = coerce_rng(rng)
    m = oracle.input_bits
    dimension = 1 << oracle.num_qubits
    amplitudes = np.zeros(dimension, dtype=complex)
    amplitudes[0] = 1.0
    amplitudes = _hadamard_on_input_register(amplitudes, m)
    amplitudes = oracle.query_vector(amplitudes)
    amplitudes = _hadamard_on_input_register(amplitudes, m)
    # Measure the input register: marginalise the output register.
    probabilities = (
        np.abs(amplitudes.reshape(-1, 1 << m)) ** 2
    ).sum(axis=0)
    probabilities = probabilities / probabilities.sum()
    outcomes = np.arange(1 << m)
    return int(rng.choices(outcomes.tolist(), weights=probabilities.tolist())[0])


def find_hidden_period(
    oracle: XorQueryOracle,
    rng: _random.Random | int | None = None,
    max_samples: int | None = None,
) -> int:
    """Recover Simon's hidden period ``s`` (0 for an injective function).

    Samples until the collected vectors have rank at least ``m - 1``.  Under
    the two-to-one promise the one-dimensional null space then contains
    exactly the hidden period; the candidate is confirmed with one classical
    collision check (``f(0) == f(s)``), which distinguishes it from the
    spurious candidate an injective function can transiently leave behind.

    Args:
        oracle: the XOR-query oracle of the promised function.
        rng: randomness for the measurements.
        max_samples: optional cap on Simon rounds (default ``8 * m + 32``).

    Raises:
        QuantumError: if the cap is exceeded (promise violated or extremely
            unlucky sampling).
    """
    rng = coerce_rng(rng)
    m = oracle.input_bits
    if max_samples is None:
        max_samples = 8 * m + 32
    rows: list[int] = []
    for _ in range(max_samples):
        sample = simon_sample(oracle, rng)
        if sample:
            rows.append(sample)
        if rank(rows, m) >= m - 1:
            candidate = solve_unique_nullspace_vector(rows, m)
            if candidate is None:
                # Rank m: only the zero vector is orthogonal to everything,
                # so the function is injective (period 0).
                return 0
            # One classical collision check certifies the candidate: a
            # two-to-one function must collide on (0, s); an injective one
            # cannot collide anywhere, so keep sampling until its rank
            # reaches m.
            if oracle.classical_query(0) == oracle.classical_query(candidate):
                return candidate
    raise QuantumError(
        f"Simon sampling did not converge within {max_samples} rounds"
    )
