"""Unit tests for instance construction and witness verification."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import not_gate
from repro.circuits.permutation import Permutation
from repro.circuits.random import random_circuit
from repro.core.equivalence import EquivalenceType
from repro.core.problem import MatchingResult
from repro.core.verify import make_instance, reconstructed_circuit, verify_match
from repro.exceptions import MatchingError
from repro.synthesis import synthesize

ALL_CLASSES = list(EquivalenceType)
CLASS_IDS = [equivalence.label for equivalence in ALL_CLASSES]
NEGATING_CLASSES = [
    equivalence
    for equivalence in ALL_CLASSES
    if equivalence.input_condition.allows_negation
    or equivalence.output_condition.allows_negation
]
MODES = pytest.mark.parametrize("exhaustive", [True, False], ids=["exhaustive", "sampled"])


def _truth_result(truth) -> MatchingResult:
    return MatchingResult(
        truth.equivalence,
        nu_x=truth.nu_x,
        pi_x=truth.pi_x,
        nu_y=truth.nu_y,
        pi_y=truth.pi_y,
    )


class TestMakeInstance:
    def test_instances_respect_the_class_shape(self, rng):
        base = random_circuit(4, 15, rng)
        c1, c2, truth = make_instance(base, EquivalenceType.N_I, rng)
        assert truth.nu_x is not None
        assert truth.pi_x is None
        assert truth.nu_y is None
        assert truth.pi_y is None
        assert c2.functionally_equal(base)

    def test_instance_is_equivalent_under_ground_truth(self, rng):
        for label in ("I-N", "P-I", "NP-I", "N-P", "N-N", "P-P", "NP-NP"):
            equivalence = EquivalenceType.from_label(label)
            base = random_circuit(4, 15, rng)
            c1, c2, truth = make_instance(base, equivalence, rng)
            result = MatchingResult(
                equivalence,
                nu_x=truth.nu_x,
                pi_x=truth.pi_x,
                nu_y=truth.nu_y,
                pi_y=truth.pi_y,
            )
            assert verify_match(c1, c2, equivalence, result)

    def test_i_i_instance_is_unchanged(self, rng):
        base = random_circuit(3, 10, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_I, rng)
        assert c1.functionally_equal(c2)


class TestVerifyMatch:
    def test_rejects_wrong_witness(self, rng):
        base = random_circuit(4, 15, rng)
        c1, c2, truth = make_instance(base, EquivalenceType.I_N, rng)
        wrong = MatchingResult(
            EquivalenceType.I_N,
            nu_y=tuple(not value for value in truth.nu_y),
        )
        # Flipping every bit of a non-trivial negation cannot still match.
        if any(truth.nu_y):
            assert not verify_match(c1, c2, EquivalenceType.I_N, wrong)

    def test_rejects_witness_outside_class(self, rng):
        base = random_circuit(3, 10, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_N, rng)
        rogue = MatchingResult(EquivalenceType.I_N, nu_x=(True, False, False))
        with pytest.raises(MatchingError):
            verify_match(c1, c2, EquivalenceType.I_N, rogue)

    def test_width_mismatch_fails(self, rng):
        c1 = random_circuit(3, 5, rng)
        c2 = random_circuit(4, 5, rng)
        assert not verify_match(c1, c2, EquivalenceType.I_I, MatchingResult(EquivalenceType.I_I))

    def test_sampled_verification_agrees_with_exhaustive(self, rng):
        base = random_circuit(5, 20, rng)
        c1, c2, truth = make_instance(base, EquivalenceType.NP_I, rng)
        result = MatchingResult(
            EquivalenceType.NP_I, nu_x=truth.nu_x, pi_x=truth.pi_x
        )
        assert verify_match(c1, c2, EquivalenceType.NP_I, result, exhaustive=False, rng=rng)

    def test_reconstructed_circuit_matches_transformed(self, rng):
        base = random_circuit(4, 12, rng)
        c1, c2, truth = make_instance(base, EquivalenceType.P_N, rng)
        result = MatchingResult(
            EquivalenceType.P_N, pi_x=truth.pi_x, nu_y=truth.nu_y
        )
        assert reconstructed_circuit(c2, result).functionally_equal(c1)


class TestEveryClass:
    @pytest.mark.parametrize("equivalence", ALL_CLASSES, ids=CLASS_IDS)
    def test_ground_truth_holds_exactly_the_components_the_class_allows(
        self, equivalence, rng
    ):
        base = random_circuit(4, 12, rng)
        _, _, truth = make_instance(base, equivalence, rng)
        inputs, outputs = equivalence.input_condition, equivalence.output_condition
        assert truth.equivalence is equivalence
        assert (truth.nu_x is not None) == inputs.allows_negation
        assert (truth.pi_x is not None) == inputs.allows_permutation
        assert (truth.nu_y is not None) == outputs.allows_negation
        assert (truth.pi_y is not None) == outputs.allows_permutation

    @MODES
    @pytest.mark.parametrize("equivalence", ALL_CLASSES, ids=CLASS_IDS)
    def test_ground_truth_witnesses_verify(self, equivalence, exhaustive, rng):
        base = random_circuit(5, 20, rng)
        c1, c2, truth = make_instance(base, equivalence, rng)
        assert verify_match(
            c1, c2, equivalence, _truth_result(truth), exhaustive=exhaustive, rng=rng
        )

    @pytest.mark.parametrize(
        "equivalence", NEGATING_CLASSES, ids=[e.label for e in NEGATING_CLASSES]
    )
    def test_a_complemented_negation_witness_is_rejected(self, equivalence, rng):
        # Complementing nu_x feeds C2 the input x XOR 1...1, and complementing
        # nu_y flips every output line: a bijection can absorb neither.
        base = random_circuit(4, 15, rng)
        c1, c2, truth = make_instance(base, equivalence, rng)
        if truth.nu_x is not None:
            wrong = replace(truth, nu_x=tuple(not value for value in truth.nu_x))
        else:
            wrong = replace(truth, nu_y=tuple(not value for value in truth.nu_y))
        wrong = _truth_result(wrong)
        assert not verify_match(c1, c2, equivalence, wrong)

    @pytest.mark.parametrize(
        "component, kind",
        [
            ("nu_x", "input negation"),
            ("pi_x", "input permutation"),
            ("nu_y", "output negation"),
            ("pi_y", "output permutation"),
        ],
    )
    def test_each_witness_component_is_refused_by_the_identity_class(
        self, component, kind, rng
    ):
        circuit = random_circuit(3, 10, rng)
        witness = (True, False, True) if component.startswith("nu") else (1, 2, 0)
        rogue = MatchingResult(EquivalenceType.I_I, **{component: witness})
        with pytest.raises(MatchingError, match=f"I-I does not allow an {kind} witness"):
            verify_match(circuit, circuit.copy(), EquivalenceType.I_I, rogue)


class TestPlainEquivalence:
    """``verify_match`` under I-I is the plain functional-equivalence check."""

    @MODES
    def test_identical_circuits_match(self, exhaustive, rng):
        circuit = random_circuit(5, 20, rng)
        identity = MatchingResult(EquivalenceType.I_I)
        assert verify_match(
            circuit, circuit.copy(), EquivalenceType.I_I, identity,
            exhaustive=exhaustive, rng=rng,
        )

    def test_resynthesised_circuit_matches(self, rng):
        circuit = random_circuit(4, 15, rng)
        resynthesised = synthesize(Permutation.from_circuit(circuit))
        assert verify_match(
            circuit, resynthesised, EquivalenceType.I_I, MatchingResult(EquivalenceType.I_I)
        )

    @MODES
    def test_one_flipped_output_line_fails_i_i_but_matches_i_n(self, exhaustive, rng):
        # The NOT differs from the identity on every input, so every probe
        # of the sampled mode catches it too.
        identity = ReversibleCircuit(3)
        flipped = ReversibleCircuit(3, [not_gate(2)])
        assert not verify_match(
            flipped, identity, EquivalenceType.I_I, MatchingResult(EquivalenceType.I_I),
            exhaustive=exhaustive, rng=rng,
        )
        witness = MatchingResult(EquivalenceType.I_N, nu_y=(False, False, True))
        assert verify_match(
            flipped, identity, EquivalenceType.I_N, witness,
            exhaustive=exhaustive, rng=rng,
        )

    def test_a_negated_input_line_fails_i_i_but_matches_n_i(self, rng):
        circuit = random_circuit(4, 15, rng)
        negated = ReversibleCircuit(4, [not_gate(0)]).then(circuit)
        assert not verify_match(
            negated, circuit, EquivalenceType.I_I, MatchingResult(EquivalenceType.I_I)
        )
        witness = MatchingResult(EquivalenceType.N_I, nu_x=(True, False, False, False))
        assert verify_match(negated, circuit, EquivalenceType.N_I, witness)

    def test_sampled_mode_rejects_a_scrambled_circuit(self, rng):
        identity = ReversibleCircuit(5)
        scrambled = random_circuit(5, 30, rng)
        assert not scrambled.is_identity()
        assert not verify_match(
            scrambled, identity, EquivalenceType.I_I, MatchingResult(EquivalenceType.I_I),
            exhaustive=False, samples=256, rng=rng,
        )

    def test_sampled_mode_fails_a_width_mismatch(self, rng):
        assert not verify_match(
            ReversibleCircuit(2), ReversibleCircuit(3), EquivalenceType.I_I,
            MatchingResult(EquivalenceType.I_I), exhaustive=False, rng=rng,
        )
