"""Differential harness: bitsliced evaluation vs. the scalar engine.

The bit-parallel path (``repro.circuits.bitslice``, surfaced as
``evaluate_many``) is an *optimisation*, never a second semantics: on
every circuit and every batch it must reproduce the scalar reference
(``circuit.simulate`` / ``oracle.peek``) bit for bit.  This harness
holds the two paths together over a seeded sweep of generated cases —
mixed MCT/CNOT/NOT cascades with negative controls and swaps, widths
from 1 to 24 lines, and ragged batch sizes straddling the 64-lane word
boundary — plus the inverse direction, line-remapped circuits, and the
validation/fallback edges.

Every case derives its rng from a fixed seed, so a failure reproduces
exactly; the sweep sizes below put the harness above 500 generated
cases in total.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits import bitslice
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import Gate, SwapGate, cnot, mct, not_gate
from repro.circuits.random import (
    random_line_permutation,
    random_mct_gate,
)
from repro.exceptions import CircuitError
from repro.oracles import CircuitOracle

SEED = 20240711
#: Batch sizes straddling the 64-lane word boundary (1 word partial,
#: 1 word minus one lane, exactly 1 word, 1 word + 1 lane, 2 words).
BATCH_SIZES = (1, 63, 64, 65, 128)
#: Cases per (sweep, batch size) cell; three sweeps x five sizes puts
#: the harness at 3 * 5 * 40 = 600 generated cases.
CASES_PER_CELL = 40


def _case_rng(sweep: str, batch_size: int, case: int) -> random.Random:
    """A per-case rng derived from the module seed — failures replay."""
    return random.Random(f"{SEED}:{sweep}:{batch_size}:{case}")


def _random_mixed_circuit(
    rng: random.Random,
    num_lines: int | None = None,
    max_gates: int | None = None,
) -> ReversibleCircuit:
    """A cascade mixing MCT (any polarity), NOT/CNOT and SWAP.

    Draws a width of 1-24 lines unless ``num_lines`` is given, and up to
    ``4 * num_lines`` gates, capped by ``max_gates``.
    """
    if num_lines is None:
        num_lines = rng.randint(1, 24)
    limit = 4 * num_lines if max_gates is None else min(4 * num_lines, max_gates)
    num_gates = rng.randint(0, limit)
    circuit = ReversibleCircuit(num_lines, name="diff")
    for _ in range(num_gates):
        if num_lines >= 2 and rng.random() < 0.2:
            line_a, line_b = rng.sample(range(num_lines), 2)
            circuit.append(SwapGate(line_a, line_b))
        else:
            circuit.append(random_mct_gate(num_lines, rng))
    return circuit


def _random_batch(
    rng: random.Random, num_lines: int, size: int
) -> list[int]:
    return [rng.getrandbits(num_lines) for _ in range(size)]


class TestBitsliceMatchesScalar:
    """The core differential sweep: forward, inverse, and remapped."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_forward_sweep(self, batch_size):
        for case in range(CASES_PER_CELL):
            rng = _case_rng("forward", batch_size, case)
            circuit = _random_mixed_circuit(rng)
            values = _random_batch(rng, circuit.num_lines, batch_size)
            expected = [circuit.simulate(value) for value in values]
            assert bitslice.simulate_many(circuit, values) == expected, (
                f"case {case}: {circuit!r} diverges on batch of {batch_size}"
            )
            oracle = CircuitOracle(circuit)
            assert oracle.evaluate_many(values) == [
                oracle.peek(value) for value in values
            ]

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_inverse_sweep(self, batch_size):
        """The reversed cascade is bitsliced too, and round-trips."""
        for case in range(CASES_PER_CELL):
            rng = _case_rng("inverse", batch_size, case)
            circuit = _random_mixed_circuit(rng)
            inverse = circuit.inverse()
            values = _random_batch(rng, circuit.num_lines, batch_size)
            expected = [inverse.simulate(value) for value in values]
            assert bitslice.simulate_many(inverse, values) == expected
            # Round trip: C^{-1}(C(x)) = x, both legs bit-parallel.
            forward = bitslice.simulate_many(circuit, values)
            assert bitslice.simulate_many(inverse, forward) == values

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_remapped_sweep(self, batch_size):
        """Line-remapped gates (shuffled control/target lines) agree."""
        for case in range(CASES_PER_CELL):
            rng = _case_rng("remapped", batch_size, case)
            circuit = _random_mixed_circuit(rng)
            remapped = circuit.remapped(
                random_line_permutation(circuit.num_lines, rng).mapping
            )
            values = _random_batch(rng, remapped.num_lines, batch_size)
            assert bitslice.simulate_many(remapped, values) == [
                remapped.simulate(value) for value in values
            ]


class TestLaneEdges:
    """Word-boundary and degenerate-shape behaviour."""

    def test_empty_batch(self):
        circuit = ReversibleCircuit(3).append(not_gate(1))
        assert bitslice.simulate_many(circuit, []) == []
        assert CircuitOracle(circuit).evaluate_many([]) == []

    def test_gateless_circuit_is_identity(self):
        circuit = ReversibleCircuit(5)
        values = list(range(32))
        assert bitslice.simulate_many(circuit, values) == values

    def test_single_line_circuit(self):
        circuit = ReversibleCircuit(1).append(not_gate(0))
        assert bitslice.simulate_many(circuit, [0, 1, 1, 0]) == [1, 0, 0, 1]

    def test_duplicate_inputs_in_one_word(self):
        rng = random.Random(SEED)
        circuit = _random_mixed_circuit(rng)
        value = rng.getrandbits(circuit.num_lines)
        values = [value] * 64
        assert bitslice.simulate_many(circuit, values) == [
            circuit.simulate(value)
        ] * 64

    def test_pack_lanes_rejects_oversized_batch(self):
        with pytest.raises(CircuitError, match="64-lane"):
            bitslice.pack_lanes([0] * 65, 4)

    def test_wider_than_word_circuits_tile(self):
        """Circuits above 64 lines transpose in 64-line tiles."""
        rng = random.Random(SEED + 1)
        num_lines = 70
        circuit = ReversibleCircuit(num_lines)
        for _ in range(40):
            circuit.append(random_mct_gate(num_lines, rng, max_controls=3))
        circuit.append(SwapGate(2, 68))
        values = [rng.getrandbits(num_lines) for _ in range(65)]
        assert bitslice.simulate_many(circuit, values) == [
            circuit.simulate(value) for value in values
        ]


class TestValidationAndFallback:
    """Error parity with the scalar path, and the scalar fallback."""

    def test_out_of_range_input_raises_like_scalar(self):
        circuit = ReversibleCircuit(3).append(cnot(0, 1))
        with pytest.raises(CircuitError, match="does not fit in 3 lines"):
            bitslice.simulate_many(circuit, [2, 8])
        with pytest.raises(CircuitError, match="does not fit in 3 lines"):
            circuit.simulate(8)

    def test_negative_input_raises(self):
        circuit = ReversibleCircuit(3)
        with pytest.raises(CircuitError):
            bitslice.simulate_many(circuit, [-1])

    def test_unsupported_gate_kind_raises_in_compile(self):
        class PhantomGate(Gate):
            @property
            def lines(self):
                return frozenset({0})

            @property
            def max_line(self):
                return 0

            def apply(self, value):
                return value ^ 1

            def inverse(self):
                return self

            def remapped(self, line_map):
                return self

        gate = PhantomGate()
        assert not bitslice.supports([gate])
        with pytest.raises(CircuitError, match="PhantomGate"):
            bitslice.compile_gates([gate])

        # The oracle capability falls back to the scalar loop and still
        # matches the reference answers exactly.
        circuit = ReversibleCircuit(2).append(gate).append(not_gate(1))
        oracle = CircuitOracle(circuit)
        assert oracle.evaluate_many([0, 1, 2, 3]) == [
            oracle.peek(value) for value in range(4)
        ]

    def test_compiled_cache_tracks_circuit_growth(self):
        """Appending gates after a batched call invalidates the cache."""
        circuit = ReversibleCircuit(4).append(cnot(0, 1))
        oracle = CircuitOracle(circuit)
        before = oracle.evaluate_many(list(range(16)))
        assert before == [circuit.simulate(value) for value in range(16)]
        circuit.append(mct([0, 2], 3)).append(not_gate(2))
        after = oracle.evaluate_many(list(range(16)))
        assert after == [circuit.simulate(value) for value in range(16)]
        assert after != before
