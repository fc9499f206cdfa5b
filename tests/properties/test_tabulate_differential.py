"""Differential harness: numpy tabulation vs. the scalar engine.

``repro.circuits.evaluate.tabulate`` serves every full-input-space call
site — ``truth_table``, ``is_identity``, ``functionally_equal``,
``Permutation.from_circuit``, ``apply_circuit`` and
``find_distinguishing_input`` — so each of them is held here to the
scalar reference table of ``tests/scalar_reference.py`` (one
``simulate`` per input) over a seeded sweep built with the bitslice
harness's generator: mixed MCT/CNOT/NOT/SWAP cascades with negative
controls, every width from 1 to 16 lines, forward, inverse and
line-remapped.  The gate count shrinks as the width grows so the scalar
side stays affordable; gateless circuits fall out of the same draw.

Every case derives its rng from a fixed seed, so a failure replays.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.circuits import evaluate
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.evaluate import tabulate
from repro.circuits.gates import Gate, not_gate
from repro.circuits.permutation import Permutation
from repro.circuits.random import random_line_permutation, random_mct_gate
from repro.core.equivalence_check import find_distinguishing_input
from repro.oracles import CircuitOracle
from repro.quantum.apply import apply_circuit, apply_permutation
from repro.quantum.statevector import Statevector
from tests.properties.test_bitslice_differential import SEED, _random_mixed_circuit
from tests.scalar_reference import scalar_table

WIDTHS = range(1, 17)
#: Scalar gate applications allowed per case: a case draws at most
#: ``GATE_BUDGET >> width`` gates (at least one may always be drawn).
GATE_BUDGET = 1 << 14
#: Cases per width of each sweep: 16 widths x (25 + 10 + 10) = 720.
SWEEP_CASES = {"forward": 25, "inverse": 10, "remapped": 10}


def _case(
    sweep: str, num_lines: int, case: int
) -> tuple[random.Random, ReversibleCircuit]:
    rng = random.Random(f"{SEED}:tabulate:{sweep}:{num_lines}:{case}")
    max_gates = max(1, GATE_BUDGET >> num_lines)
    return rng, _random_mixed_circuit(rng, num_lines, max_gates)


def _check_against_scalar(circuit: ReversibleCircuit, rng: random.Random) -> None:
    """Every exhaustive call site agrees with the scalar table of ``circuit``."""
    expected = scalar_table(circuit)
    size = len(expected)

    table = tabulate(circuit)
    assert table.dtype == np.int64
    assert table.tolist() == expected, repr(circuit)
    assert circuit.truth_table() == expected
    assert circuit.is_identity() == (expected == list(range(size)))
    permutation = Permutation.from_circuit(circuit)
    assert permutation.mapping == tuple(expected)
    assert CircuitOracle(circuit).peek_table() == expected

    # A circuit and the same cascade with one more MCT gate: the gate flips
    # its target wherever it fires, so the two always differ somewhere.
    gate = random_mct_gate(circuit.num_lines, rng)
    extended = circuit.copy().append(gate)
    extended_expected = [gate.apply(value) for value in expected]
    assert circuit.functionally_equal(circuit.copy())
    assert not circuit.functionally_equal(extended)
    first_difference = next(
        x for x in range(size) if expected[x] != extended_expected[x]
    )
    assert find_distinguishing_input(circuit, extended) == first_difference
    assert find_distinguishing_input(circuit, circuit.copy()) is None

    # Distinct amplitudes identify where each basis state lands.
    state = Statevector(
        np.arange(size, dtype=complex), circuit.num_lines, validate=False
    )
    reference = np.empty(size, dtype=complex)
    reference[expected] = state.vector
    assert np.array_equal(apply_circuit(circuit, state).vector, reference)
    for _ in range(2):  # the second query reuses the cached index array
        reused = apply_permutation(permutation, state)
        assert np.array_equal(reused.vector, reference)


class TestTabulateMatchesScalar:
    @pytest.mark.parametrize("num_lines", WIDTHS)
    def test_forward_sweep(self, num_lines):
        for case in range(SWEEP_CASES["forward"]):
            rng, circuit = _case("forward", num_lines, case)
            _check_against_scalar(circuit, rng)

    @pytest.mark.parametrize("num_lines", WIDTHS)
    def test_inverse_sweep(self, num_lines):
        """The reversed cascade tabulates to the inverse permutation."""
        for case in range(SWEEP_CASES["inverse"]):
            rng, circuit = _case("inverse", num_lines, case)
            inverse = circuit.inverse()
            _check_against_scalar(inverse, rng)
            forward = tabulate(circuit)
            round_trip = tabulate(inverse)[forward]
            assert np.array_equal(round_trip, np.arange(forward.size))
            assert circuit.then(inverse).is_identity()

    @pytest.mark.parametrize("num_lines", WIDTHS)
    def test_remapped_sweep(self, num_lines):
        for case in range(SWEEP_CASES["remapped"]):
            rng, circuit = _case("remapped", num_lines, case)
            line_map = random_line_permutation(num_lines, rng).mapping
            _check_against_scalar(circuit.remapped(line_map), rng)


class TestEdges:
    def test_gateless_circuit_is_identity(self):
        for num_lines in (1, 5, 12):
            circuit = ReversibleCircuit(num_lines)
            assert circuit.is_identity()
            identity = Permutation.identity(num_lines)
            assert Permutation.from_circuit(circuit) == identity
            assert tabulate(circuit).tolist() == list(range(1 << num_lines))

    def test_user_defined_gate_falls_back_to_scalar(self):
        class PhantomGate(Gate):
            """Flips line 0 when line 1 is set — no vectorized form."""

            @property
            def lines(self):
                return frozenset({0, 1})

            @property
            def max_line(self):
                return 1

            def apply(self, value):
                return value ^ 1 if value & 2 else value

            def inverse(self):
                return self

            def remapped(self, line_map):
                return self

        circuit = ReversibleCircuit(3).append(not_gate(2)).append(PhantomGate())
        circuit.append(not_gate(1))
        rng = random.Random(SEED)
        _check_against_scalar(circuit, rng)

    def test_widths_beyond_the_word_fall_back_to_scalar(self, monkeypatch):
        _, circuit = _case("word", 6, 0)
        expected = scalar_table(circuit)
        calls = []
        simulate = circuit.simulate
        circuit.simulate = lambda value: calls.append(value) or simulate(value)
        monkeypatch.setattr(evaluate, "WORD_LINES", 5)
        assert tabulate(circuit).tolist() == expected
        assert calls == list(range(64))
