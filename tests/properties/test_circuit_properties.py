"""Property-based tests (hypothesis) for the circuit substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import Control, MCTGate, SwapGate, cnot
from repro.circuits.line_permutation import LinePermutation
from repro.circuits.permutation import Permutation
from repro.circuits.transforms import (
    negation_circuit,
    permutation_circuit,
    transformed_circuit,
)

NUM_LINES = 4


@st.composite
def mct_gates(draw, num_lines: int = NUM_LINES):
    target = draw(st.integers(min_value=0, max_value=num_lines - 1))
    candidates = [line for line in range(num_lines) if line != target]
    count = draw(st.integers(min_value=0, max_value=len(candidates)))
    control_lines = draw(
        st.permutations(candidates).map(lambda lines: lines[:count])
    )
    polarities = draw(
        st.lists(st.booleans(), min_size=count, max_size=count)
    )
    controls = tuple(
        Control(line, polarity) for line, polarity in zip(control_lines, polarities)
    )
    return MCTGate(controls, target)


@st.composite
def circuits(draw, num_lines: int = NUM_LINES, max_gates: int = 12):
    gates = draw(st.lists(mct_gates(num_lines), max_size=max_gates))
    return ReversibleCircuit(num_lines, gates)


@st.composite
def line_permutations(draw, num_lines: int = NUM_LINES):
    return LinePermutation(draw(st.permutations(list(range(num_lines)))))


negations = st.lists(st.booleans(), min_size=NUM_LINES, max_size=NUM_LINES)
inputs = st.integers(min_value=0, max_value=(1 << NUM_LINES) - 1)


class TestCircuitInvariants:
    @given(circuits(), inputs)
    @settings(max_examples=80, deadline=None)
    def test_circuit_is_a_bijection(self, circuit, value):
        table = circuit.truth_table()
        assert sorted(table) == list(range(1 << NUM_LINES))
        assert table[value] == circuit.simulate(value)

    @given(circuits(), inputs)
    @settings(max_examples=80, deadline=None)
    def test_inverse_undoes_circuit(self, circuit, value):
        assert circuit.inverse().simulate(circuit.simulate(value)) == value

    @given(circuits(), circuits(), inputs)
    @settings(max_examples=60, deadline=None)
    def test_composition_is_sequential_application(self, first, second, value):
        assert first.then(second).simulate(value) == second.simulate(
            first.simulate(value)
        )

    @given(circuits())
    @settings(max_examples=40, deadline=None)
    def test_permutation_view_roundtrip(self, circuit):
        from repro.synthesis import synthesize

        permutation = Permutation.from_circuit(circuit)
        assert synthesize(permutation).functionally_equal(circuit)

    @given(mct_gates(), inputs)
    @settings(max_examples=100, deadline=None)
    def test_gates_are_involutions(self, gate, value):
        assert gate.apply(gate.apply(value)) == value


class TestTransformInvariants:
    @given(negations, inputs)
    @settings(max_examples=60, deadline=None)
    def test_negation_circuit_is_xor(self, nu, value):
        mask = sum(1 << index for index, flag in enumerate(nu) if flag)
        assert negation_circuit(nu).simulate(value) == value ^ mask

    @given(line_permutations(), inputs)
    @settings(max_examples=60, deadline=None)
    def test_permutation_circuit_matches_line_action(self, pi, value):
        assert permutation_circuit(pi).simulate(value) == pi.apply_to_vector(value)

    @given(negations, line_permutations(), inputs)
    @settings(max_examples=60, deadline=None)
    def test_fig4_commutation_identity(self, nu, pi, value):
        # C_pi C_nu == C_nu' C_pi, where nu' is nu moved by pi.
        mask = sum(1 << index for index, flag in enumerate(nu) if flag)
        moved = pi.apply_to_vector(mask)
        nu_prime = [bool((moved >> line) & 1) for line in range(NUM_LINES)]
        left = negation_circuit(nu).then(permutation_circuit(pi))
        right = permutation_circuit(pi).then(negation_circuit(nu_prime))
        assert left.simulate(value) == right.simulate(value)

    @given(circuits(), negations, line_permutations(), inputs)
    @settings(max_examples=40, deadline=None)
    def test_transformed_circuit_factorises(self, base, nu, pi, value):
        wrapped = transformed_circuit(base, nu_x=nu, pi_x=pi)
        mask = sum(1 << index for index, flag in enumerate(nu) if flag)
        assert wrapped.simulate(value) == base.simulate(
            pi.apply_to_vector(value ^ mask)
        )


class TestLinePermutationInvariants:
    @given(line_permutations(), line_permutations(), inputs)
    @settings(max_examples=60, deadline=None)
    def test_composition_action(self, outer, inner, value):
        composed = outer.compose(inner)
        assert composed.apply_to_vector(value) == outer.apply_to_vector(
            inner.apply_to_vector(value)
        )

    @given(line_permutations(), inputs)
    @settings(max_examples=60, deadline=None)
    def test_inverse_action(self, pi, value):
        assert pi.inverse().apply_to_vector(pi.apply_to_vector(value)) == value

    @given(line_permutations())
    @settings(max_examples=40, deadline=None)
    def test_cycle_decomposition_reconstructs_permutation(self, pi):
        mapping = list(range(len(pi)))
        for cycle in pi.cycles():
            for line, image in zip(cycle, cycle[1:] + cycle[:1]):
                mapping[line] = image
        assert LinePermutation(mapping) == pi


class TestSwapInvariants:
    @given(
        st.integers(min_value=0, max_value=NUM_LINES - 1),
        st.integers(min_value=0, max_value=NUM_LINES - 1),
        inputs,
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_equals_three_cnots(self, line_a, line_b, value):
        if line_a == line_b:
            return
        cnots = ReversibleCircuit(
            NUM_LINES, [cnot(line_a, line_b), cnot(line_b, line_a), cnot(line_a, line_b)]
        )
        assert cnots.simulate(value) == SwapGate(line_a, line_b).apply(value)
